package bench

import (
	"fmt"

	"kmem/internal/core"
)

// TopologyPoint is one measured topology configuration of the
// producer/consumer cross-CPU-free workload.
type TopologyPoint struct {
	Nodes int
	CPUs  int

	Pairs       uint64  // alloc-on-one-CPU, free-on-another round trips completed
	PairsPerSec float64 // throughput in round trips per simulated second

	BusTxnsPerBus    float64 // mean transactions per node-local bus
	BusOccupancy     float64 // mean fraction of each bus's cycles spent occupied
	InterconnectTxns uint64  // transactions that crossed the node interconnect

	RemoteFrees uint64 // blocks routed to a non-local node's global pool
	NodeSteals  uint64 // blocks stolen cross-node by dry refills
	SpillRouted uint64 // blocks of main/aux spills routed home one lookup at a time
}

// TopologyResult sweeps the same workload across node counts at a fixed
// total CPU count, isolating the effect of partitioning the machine.
type TopologyResult struct {
	BlockSize uint64
	Seconds   float64
	Pairing   string
	Points    []TopologyPoint
}

// RunTopology runs the paper's motivating cross-CPU-free pattern — "one
// CPU allocates buffers of a given size, which are then passed to other
// CPUs that free them" — on the same CPU count under each topology in
// nodes. Half the CPUs produce (allocate and enqueue), half consume
// (dequeue and free). Pairing "near" mates each producer with the next
// CPU (same node whenever CPUs divide evenly into nodes), so partitioning
// splits both the pool locks and the coherence traffic across node
// buses; pairing "cross" mates producer i with consumer i+ncpu/2,
// forcing every handoff across nodes to exercise the remote-free and
// steal paths. interconnect overrides Config.InterconnectCycles when
// positive.
func RunTopology(ncpu int, nodes []int, blockSize uint64, seconds float64, pairing string, interconnect int64) (*TopologyResult, error) {
	if ncpu < 2 || ncpu%2 != 0 {
		return nil, fmt.Errorf("bench: topology needs an even CPU count >= 2, got %d", ncpu)
	}
	if pairing != "near" && pairing != "cross" {
		return nil, fmt.Errorf("bench: topology pairing %q (want near or cross)", pairing)
	}
	res := &TopologyResult{BlockSize: blockSize, Seconds: seconds, Pairing: pairing}
	for _, n := range nodes {
		if n < 1 || n > ncpu {
			return nil, fmt.Errorf("bench: topology with %d nodes on %d CPUs", n, ncpu)
		}
		pt, err := runTopologyPoint(ncpu, n, blockSize, seconds, pairing, interconnect)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func runTopologyPoint(ncpu, nnodes int, blockSize uint64, seconds float64, pairing string, interconnect int64) (TopologyPoint, error) {
	cfg := MachineFor(ncpu, 32<<20, 8192)
	cfg.Nodes = nnodes
	if interconnect > 0 {
		cfg.InterconnectCycles = interconnect
	}
	// Producers are the even CPUs under "near" pairing and the first
	// half under "cross".
	route := func(id, _ int) int {
		switch {
		case pairing == "near" && id%2 == 0:
			return id + 1
		case pairing == "cross" && id < ncpu/2:
			return id + ncpu/2
		}
		return -1
	}
	w, err := runPairs(cfg, core.Params{}, blockSize, seconds, route, false)
	if err != nil {
		return TopologyPoint{}, err
	}
	pt := TopologyPoint{
		Nodes: nnodes, CPUs: ncpu,
		Pairs: w.pairs, PairsPerSec: float64(w.pairs) / seconds,
		BusTxnsPerBus: w.busTxnsPerBus, BusOccupancy: w.busOccupancy, InterconnectTxns: w.icTxns,
	}
	// Unlike the window's other numbers these three count from boot.
	for _, cs := range w.after.Classes {
		pt.RemoteFrees += cs.RemoteFrees
		pt.NodeSteals += cs.NodeSteals
		pt.SpillRouted += cs.SpillRouted
	}
	return pt, nil
}

// Table renders the sweep.
func (r *TopologyResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Producer/consumer cross-CPU frees: %d-byte blocks, %s pairing, topology sweep",
			r.BlockSize, r.Pairing),
		Headers: []string{"nodes", "cpus", "pairs/s", "txns/bus", "bus occ", "ic txns", "remote frees", "steals", "routed"},
	}
	for _, p := range r.Points {
		t.AddRowf("%d|%d|%.0f|%.0f|%.1f%%|%d|%d|%d|%d",
			p.Nodes, p.CPUs, p.PairsPerSec, p.BusTxnsPerBus, 100*p.BusOccupancy, p.InterconnectTxns,
			p.RemoteFrees, p.NodeSteals, p.SpillRouted)
	}
	return t
}
