package bench

import "testing"

func TestTopologyPartitioningWins(t *testing.T) {
	// The tentpole acceptance criterion: at a fixed CPU count high enough
	// to saturate one bus, splitting the machine into nodes must raise
	// producer/consumer throughput and lower per-bus occupancy when the
	// traffic partitions with the nodes.
	res, err := RunTopology(8, []int{1, 4}, 128, 0.005, "near", 0)
	if err != nil {
		t.Fatal(err)
	}
	one, two := res.Points[0], res.Points[1]
	if two.PairsPerSec <= one.PairsPerSec {
		t.Fatalf("2 nodes: %.0f pairs/s, 1 node: %.0f — partitioning did not help",
			two.PairsPerSec, one.PairsPerSec)
	}
	if two.BusOccupancy >= one.BusOccupancy {
		t.Fatalf("2 nodes: %.2f bus occupancy, 1 node: %.2f — per-bus load did not drop",
			two.BusOccupancy, one.BusOccupancy)
	}
	// Near pairing keeps each producer/consumer pair on one node: the
	// interconnect must stay out of the fast paths entirely.
	if two.RemoteFrees != 0 {
		t.Fatalf("near pairing produced %d remote frees", two.RemoteFrees)
	}
}

func TestTopologyCrossPairingExercisesRemotePath(t *testing.T) {
	res, err := RunTopology(4, []int{2}, 128, 0.005, "cross", 0)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.RemoteFrees == 0 {
		t.Fatal("cross pairing recorded no remote frees")
	}
	if pt.InterconnectTxns == 0 {
		t.Fatal("cross pairing never crossed the interconnect")
	}
	// Nothing stole, so every cache stayed node-pure and every main/aux
	// spill was one list operation.
	if pt.NodeSteals != 0 || pt.SpillRouted != 0 {
		t.Fatalf("cross pairing: %d blocks stolen, %d routed one by one", pt.NodeSteals, pt.SpillRouted)
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := RunTopology(3, []int{1}, 128, 0.001, "near", 0); err == nil {
		t.Fatal("odd CPU count accepted")
	}
	if _, err := RunTopology(4, []int{1}, 128, 0.001, "diagonal", 0); err == nil {
		t.Fatal("unknown pairing accepted")
	}
	if _, err := RunTopology(4, []int{8}, 128, 0.001, "near", 0); err == nil {
		t.Fatal("more nodes than CPUs accepted")
	}
}
