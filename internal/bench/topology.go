package bench

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
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
}

// TopologyResult sweeps the same workload across node counts at a fixed
// total CPU count, isolating the effect of partitioning the machine.
type TopologyResult struct {
	BlockSize uint64
	Seconds   float64
	Pairing   string
	Points    []TopologyPoint
}

// queueCap bounds each producer/consumer handoff queue; a full queue
// makes the producer idle, a drained one makes the consumer idle, so
// neither side free-runs.
const queueCap = 64

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
	m := machine.New(cfg)
	a, err := core.New(m, core.Params{})
	if err != nil {
		return TopologyPoint{}, err
	}
	ck, err := a.GetCookie(blockSize)
	if err != nil {
		return TopologyPoint{}, err
	}

	// consumerOf[p] for producers; producers are the even CPUs under
	// "near" pairing and the first half under "cross".
	consumerOf := make([]int, ncpu)
	isProducer := make([]bool, ncpu)
	for i := 0; i < ncpu; i++ {
		if pairing == "near" {
			if i%2 == 0 {
				isProducer[i] = true
				consumerOf[i] = i + 1
			}
		} else {
			if i < ncpu/2 {
				isProducer[i] = true
				consumerOf[i] = i + ncpu/2
			}
		}
	}

	queues := make([][]arena.Addr, ncpu) // indexed by consumer CPU
	pairs := make([]uint64, ncpu)
	body := func(c *machine.CPU) {
		id := c.ID()
		if isProducer[id] {
			q := &queues[consumerOf[id]]
			if len(*q) >= queueCap {
				c.Idle(100)
				return
			}
			b, err := a.AllocCookie(c, ck)
			if err != nil {
				c.Idle(100)
				return
			}
			*q = append(*q, b)
			return
		}
		q := &queues[id]
		if len(*q) == 0 {
			c.Idle(100)
			return
		}
		b := (*q)[0]
		*q = (*q)[1:]
		a.FreeCookie(c, b, ck)
		pairs[id]++
	}

	// Warm up past the carve-heavy start, then measure a clean window.
	m.RunFor(seconds/4, body)
	m.ResetStats()
	for i := range pairs {
		pairs[i] = 0
	}
	m.RunFor(seconds, body)

	pt := TopologyPoint{Nodes: nnodes, CPUs: ncpu}
	for _, p := range pairs {
		pt.Pairs += p
	}
	pt.PairsPerSec = float64(pt.Pairs) / seconds
	busTxns := m.BusTransactions()
	pt.BusTxnsPerBus = float64(busTxns) / float64(nnodes)
	windowCycles := float64(m.SecondsToCycles(seconds))
	pt.BusOccupancy = pt.BusTxnsPerBus * float64(cfg.BusCycles) / windowCycles
	pt.InterconnectTxns = m.InterconnectTransactions()

	st := a.Stats(m.CPU(0))
	for _, cs := range st.Classes {
		pt.RemoteFrees += cs.RemoteFrees
		pt.NodeSteals += cs.NodeSteals
	}
	return pt, nil
}

// Table renders the sweep.
func (r *TopologyResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Producer/consumer cross-CPU frees: %d-byte blocks, %s pairing, topology sweep",
			r.BlockSize, r.Pairing),
		Headers: []string{"nodes", "cpus", "pairs/s", "txns/bus", "bus occ", "ic txns", "remote frees", "steals"},
	}
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%d", p.CPUs),
			fmt.Sprintf("%.0f", p.PairsPerSec),
			fmt.Sprintf("%.0f", p.BusTxnsPerBus),
			fmt.Sprintf("%.1f%%", 100*p.BusOccupancy),
			fmt.Sprintf("%d", p.InterconnectTxns),
			fmt.Sprintf("%d", p.RemoteFrees),
			fmt.Sprintf("%d", p.NodeSteals),
		)
	}
	return t
}
