package bench

import (
	"fmt"

	"kmem/internal/core"
	"kmem/internal/machine"
)

// ScalingPoint is one measured (CPUs, nodes, workload, fast path)
// configuration of the scaling sweep. Throughput and every counter
// cover the same clean measurement window after warmup (counters are
// deltas of two Stats snapshots), so remote puts, flushes, and lock
// cycles can be compared per completed pair across configurations.
type ScalingPoint struct {
	CPUs     int
	Nodes    int
	Workload string // "allocfree" (local churn) or "prodcons" (cross-CPU handoff)
	LockFree bool   // optimistic fast paths (Params.Rseq + Params.LockFree)

	Pairs       uint64  // alloc+free round trips completed in the window
	PairsPerSec float64 // throughput in round trips per simulated second

	// Cross-node traffic and shard activity (zero on one node).
	RemoteFrees  uint64 // blocks that reached a non-local node's global pool
	RemotePuts   uint64 // putList lock trips taken against a non-local pool
	ShardFlushes uint64 // batched remote-free shard flushes
	HomeMemoHits uint64 // per-CPU home-memo hits
	NodeSteals   uint64 // blocks stolen cross-node by dry refills

	InterconnectTxns uint64  // memory transactions that crossed the interconnect
	BusOccupancy     float64 // mean fraction of each bus's window spent occupied

	// Slow-path lock economics, summed over every pool lock plus the
	// vmblk-layer lock (Sim mode only; all zero in Native mode).
	LockAcqs       uint64 // acquisitions
	LockContended  uint64 // acquisitions that had to spin
	LockWaitCycles uint64 // cycles spent spinning (the EvLockWait spine sum)
	LockHoldCycles int64  // cycles locks were held

	// Optimistic fast-path activity (zero with LockFree off).
	RseqRestarts uint64 // per-CPU sequences aborted and re-run
	CASRetries   uint64 // lock-free commits that lost their CAS and re-ran
}

// ScalingResult is the full sweep.
type ScalingResult struct {
	BlockSize uint64
	Seconds   float64
	Points    []ScalingPoint
}

// ScalingWorkloads lists the sweep's workload names.
var ScalingWorkloads = []string{"allocfree", "prodcons"}

// RunScaling sweeps CPU count x node count x workload x fast path.
// Combinations where the node count exceeds or does not divide the CPU
// count are skipped. Workload "allocfree" is same-CPU churn — every
// block is freed where it was allocated, so it bounds what the shards
// may cost when they have nothing to do. Workload "prodcons" is the
// paper's motivating handoff pattern with a cross-node sprinkle: even
// CPUs allocate, odd CPUs free; a producer hands two of every three
// blocks to its same-node partner and deals the third round-robin
// across all consumers, so every consumer frees a stream of
// mostly-local blocks with remote homes interleaved — exactly the
// pattern the remote-free shards batch.
//
// Each configuration runs once with the classical interrupt-masked and
// spin-locked paths and once with the restartable per-CPU sequences and
// the CAS-based global layer (Params.Rseq + Params.LockFree together).
// The pairing holds the workload and the topology identical, isolating
// what the optimistic paths buy.
func RunScaling(cpuCounts, nodeCounts []int, blockSize uint64, seconds float64) (*ScalingResult, error) {
	res := &ScalingResult{BlockSize: blockSize, Seconds: seconds}
	for _, ncpu := range cpuCounts {
		if ncpu < 2 || ncpu%2 != 0 {
			return nil, fmt.Errorf("bench: scaling needs even CPU counts >= 2, got %d", ncpu)
		}
		for _, nn := range nodeCounts {
			if nn < 1 {
				return nil, fmt.Errorf("bench: scaling with %d nodes", nn)
			}
			if nn > ncpu || ncpu%nn != 0 {
				continue
			}
			for _, wl := range ScalingWorkloads {
				for _, lockFree := range []bool{false, true} {
					pt, err := runScalingPoint(ncpu, nn, wl, lockFree, blockSize, seconds)
					if err != nil {
						return nil, err
					}
					res.Points = append(res.Points, pt)
				}
			}
		}
	}
	return res, nil
}

func runScalingPoint(ncpu, nnodes int, workload string, lockFree bool, blockSize uint64, seconds float64) (ScalingPoint, error) {
	cfg := MachineFor(ncpu, 32<<20, 8192)
	cfg.Nodes = nnodes
	var route func(id, n int) int // nil: "allocfree"
	if workload == "prodcons" {
		route = func(id, n int) int {
			switch {
			case id%2 != 0:
				return -1
			case n%3 == 2:
				// Every third block is dealt round-robin across all
				// consumers, interleaving remote homes into each
				// consumer's free stream.
				return ((n/3)%(ncpu/2))*2 + 1
			}
			return id + 1 // same-node partner
		}
	}
	w, err := runPairs(cfg, core.Params{Rseq: lockFree, LockFree: lockFree}, blockSize, seconds, route, true)
	if err != nil {
		return ScalingPoint{}, err
	}
	pt := ScalingPoint{
		CPUs: ncpu, Nodes: nnodes, Workload: workload, LockFree: lockFree,
		Pairs: w.pairs, PairsPerSec: float64(w.pairs) / seconds,
		InterconnectTxns: w.icTxns, BusOccupancy: w.busOccupancy,
	}
	pt.tally(w.after, 1)
	pt.tally(w.before, ^uint64(0))
	return pt, nil
}

// tally adds one Stats snapshot's counters to pt, every class's pools
// plus the vmblk layer, each multiplied by sign: 1 adds, and ^0 — minus
// one in the counters' wrap-around arithmetic — subtracts, so the
// window's delta is one tally of each edge.
func (pt *ScalingPoint) tally(st core.Stats, sign uint64) {
	locks := []machine.LockStats{st.VM.Lock}
	pt.LockWaitCycles += sign * st.VM.LockWaitCycles
	for _, cs := range st.Classes {
		pt.RemoteFrees += sign * cs.RemoteFrees
		pt.RemotePuts += sign * cs.RemotePuts
		pt.ShardFlushes += sign * cs.ShardFlushes
		pt.HomeMemoHits += sign * cs.HomeMemoHits
		pt.NodeSteals += sign * cs.NodeSteals
		pt.LockWaitCycles += sign * cs.LockWaitCycles
		pt.RseqRestarts += sign * cs.RseqRestarts
		pt.CASRetries += sign * cs.CASRetries
		locks = append(locks, cs.GlobalLock, cs.PageLock)
	}
	for _, ls := range locks {
		pt.LockAcqs += sign * ls.Acquisitions
		pt.LockContended += sign * ls.Contended
		pt.LockHoldCycles += int64(sign) * ls.HoldCycles
	}
}

// Point returns the sweep's point for one exact configuration, or nil.
func (r *ScalingResult) Point(cpus, nodes int, workload string, lockFree bool) *ScalingPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.CPUs == cpus && p.Nodes == nodes && p.Workload == workload && p.LockFree == lockFree {
			return p
		}
	}
	return nil
}

// Table renders the sweep: locked vs lock-free fast paths, per point,
// with the restart/retry counters that price the optimism.
func (r *ScalingResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Lock-free sweep: %d-byte blocks, %.3fs window, shards on, locked vs rseq+CAS paths",
			r.BlockSize, r.Seconds),
		Headers: []string{"cpus", "nodes", "workload", "lockfree", "pairs/s",
			"lock wait", "lock hold", "restarts", "cas retries"},
	}
	onoff := map[bool]string{false: "off", true: "on"}
	for _, p := range r.Points {
		t.AddRowf("%d|%d|%s|%s|%.0f|%d|%d|%d|%d",
			p.CPUs, p.Nodes, p.Workload, onoff[p.LockFree], p.PairsPerSec, p.LockWaitCycles,
			p.LockHoldCycles, p.RseqRestarts, p.CASRetries)
	}
	return t
}
