package bench

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
)

// ScalingPoint is one measured (CPUs, nodes, workload, shards)
// configuration of the scaling sweep. Throughput and every counter
// cover the same clean measurement window after warmup (counters are
// deltas of two Stats snapshots), so remote puts, flushes, and lock
// cycles can be compared per completed pair across configurations.
type ScalingPoint struct {
	CPUs     int
	Nodes    int
	Workload string // "allocfree" (local churn) or "prodcons" (cross-CPU handoff)
	Shards   bool   // remote-free shards enabled
	LockFree bool   // optimistic fast paths (Params.Rseq + Params.LockFree)

	Pairs       uint64  // alloc+free round trips completed in the window
	PairsPerSec float64 // throughput in round trips per simulated second

	// Cross-node traffic and shard activity (zero on one node).
	RemoteFrees  uint64 // blocks that reached a non-local node's global pool
	RemotePuts   uint64 // putList lock trips taken against a non-local pool
	ShardFlushes uint64 // batched shard flushes (zero with shards off)
	HomeMemoHits uint64 // per-CPU home-memo hits (zero with shards off)
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

// RunScaling sweeps CPU count x node count x workload x shards on/off.
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
func RunScaling(cpuCounts, nodeCounts []int, blockSize uint64, seconds float64) (*ScalingResult, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("bench: scaling needs a positive window, got %v", seconds)
	}
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
				for _, shards := range []bool{false, true} {
					pt, err := runScalingPoint(ncpu, nn, wl, shards, false, blockSize, seconds)
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

// RunScalingLockFree sweeps the optimistic axis: every (CPUs, nodes,
// workload) point with remote-free shards on — the production
// configuration — measured once with the classical interrupt-masked and
// spin-locked paths and once with the restartable per-CPU sequences and
// the CAS-based global layer (Params.Rseq + Params.LockFree together).
// The pairing isolates what going lock-free buys: the workload, the
// topology, and the shard batching are held identical.
func RunScalingLockFree(cpuCounts, nodeCounts []int, blockSize uint64, seconds float64) (*ScalingResult, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("bench: scaling needs a positive window, got %v", seconds)
	}
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
					pt, err := runScalingPoint(ncpu, nn, wl, true, lockFree, blockSize, seconds)
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

func runScalingPoint(ncpu, nnodes int, workload string, shards, lockFree bool, blockSize uint64, seconds float64) (ScalingPoint, error) {
	cfg := MachineFor(ncpu, 32<<20, 8192)
	cfg.Nodes = nnodes
	m := machine.New(cfg)
	a, err := core.New(m, core.Params{
		DisableRemoteShards: !shards,
		Rseq:                lockFree,
		LockFree:            lockFree,
	})
	if err != nil {
		return ScalingPoint{}, err
	}
	ck, err := a.GetCookie(blockSize)
	if err != nil {
		return ScalingPoint{}, err
	}

	pairs := make([]uint64, ncpu)
	var body func(c *machine.CPU)
	switch workload {
	case "allocfree":
		body = func(c *machine.CPU) {
			b, err := a.AllocCookie(c, ck)
			if err != nil {
				c.Idle(100)
				return
			}
			a.FreeCookie(c, b, ck)
			pairs[c.ID()]++
		}
	case "prodcons":
		queues := make([][]arena.Addr, ncpu) // indexed by consumer CPU
		dealt := make([]int, ncpu)           // per-producer deal counter
		body = func(c *machine.CPU) {
			id := c.ID()
			if id%2 == 0 { // producer
				to := id + 1 // same-node partner (two of every three blocks)
				d := dealt[id]
				dealt[id] = d + 1
				if d%3 == 2 {
					// Every third block is dealt round-robin across all
					// consumers, interleaving remote homes into each
					// consumer's free stream.
					to = ((d/3)%(ncpu/2))*2 + 1
				}
				q := &queues[to]
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
	default:
		return ScalingPoint{}, fmt.Errorf("bench: scaling workload %q (want allocfree or prodcons)", workload)
	}

	// Warm up past the carve-heavy start, then measure a clean window.
	// The allocator's counters only ever grow, so the window's activity is
	// the delta between a snapshot taken here and one taken at the end.
	m.RunFor(seconds/4, body)
	m.ResetStats()
	for i := range pairs {
		pairs[i] = 0
	}
	before := collectCounters(a.Stats(m.CPU(0)))
	m.RunFor(seconds, body)

	pt := ScalingPoint{CPUs: ncpu, Nodes: nnodes, Workload: workload, Shards: shards, LockFree: lockFree}
	for _, p := range pairs {
		pt.Pairs += p
	}
	pt.PairsPerSec = float64(pt.Pairs) / seconds
	busTxns := m.BusTransactions()
	windowCycles := float64(m.SecondsToCycles(seconds))
	pt.BusOccupancy = float64(busTxns) / float64(nnodes) * float64(cfg.BusCycles) / windowCycles
	pt.InterconnectTxns = m.InterconnectTransactions()

	after := collectCounters(a.Stats(m.CPU(0)))
	pt.RemoteFrees = after.RemoteFrees - before.RemoteFrees
	pt.RemotePuts = after.RemotePuts - before.RemotePuts
	pt.ShardFlushes = after.ShardFlushes - before.ShardFlushes
	pt.HomeMemoHits = after.HomeMemoHits - before.HomeMemoHits
	pt.NodeSteals = after.NodeSteals - before.NodeSteals
	pt.LockWaitCycles = after.LockWaitCycles - before.LockWaitCycles
	pt.LockAcqs = after.LockAcqs - before.LockAcqs
	pt.LockContended = after.LockContended - before.LockContended
	pt.LockHoldCycles = after.LockHoldCycles - before.LockHoldCycles
	pt.RseqRestarts = after.RseqRestarts - before.RseqRestarts
	pt.CASRetries = after.CASRetries - before.CASRetries
	return pt, nil
}

// collectCounters flattens one Stats snapshot into the sweep's counter
// set, summing every class's pools plus the vmblk layer.
func collectCounters(st core.Stats) ScalingPoint {
	var pt ScalingPoint
	for _, cs := range st.Classes {
		pt.RemoteFrees += cs.RemoteFrees
		pt.RemotePuts += cs.RemotePuts
		pt.ShardFlushes += cs.ShardFlushes
		pt.HomeMemoHits += cs.HomeMemoHits
		pt.NodeSteals += cs.NodeSteals
		pt.LockWaitCycles += cs.LockWaitCycles
		pt.RseqRestarts += cs.RseqRestarts
		pt.CASRetries += cs.CASRetries
		for _, ls := range []machine.LockStats{cs.GlobalLock, cs.PageLock} {
			pt.LockAcqs += ls.Acquisitions
			pt.LockContended += ls.Contended
			pt.LockHoldCycles += ls.HoldCycles
		}
	}
	pt.LockWaitCycles += st.VM.LockWaitCycles
	pt.LockAcqs += st.VM.Lock.Acquisitions
	pt.LockContended += st.VM.Lock.Contended
	pt.LockHoldCycles += st.VM.Lock.HoldCycles
	return pt
}

// Point returns the sweep's point for one exact configuration, or nil.
func (r *ScalingResult) Point(cpus, nodes int, workload string, shards bool) *ScalingPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.CPUs == cpus && p.Nodes == nodes && p.Workload == workload && p.Shards == shards {
			return p
		}
	}
	return nil
}

// PointLF returns the lock-free sweep's point for one exact
// configuration (shards are always on there), or nil.
func (r *ScalingResult) PointLF(cpus, nodes int, workload string, lockFree bool) *ScalingPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.CPUs == cpus && p.Nodes == nodes && p.Workload == workload && p.LockFree == lockFree {
			return p
		}
	}
	return nil
}

// Table renders the sweep.
func (r *ScalingResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Scaling sweep: %d-byte blocks, %.3fs window, remote-free shards on/off",
			r.BlockSize, r.Seconds),
		Headers: []string{"cpus", "nodes", "workload", "shards", "pairs/s",
			"remote puts", "flushes", "memo hits", "lock wait", "lock hold", "bus occ"},
	}
	onoff := map[bool]string{false: "off", true: "on"}
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%d", p.CPUs),
			fmt.Sprintf("%d", p.Nodes),
			p.Workload,
			onoff[p.Shards],
			fmt.Sprintf("%.0f", p.PairsPerSec),
			fmt.Sprintf("%d", p.RemotePuts),
			fmt.Sprintf("%d", p.ShardFlushes),
			fmt.Sprintf("%d", p.HomeMemoHits),
			fmt.Sprintf("%d", p.LockWaitCycles),
			fmt.Sprintf("%d", p.LockHoldCycles),
			fmt.Sprintf("%.1f%%", 100*p.BusOccupancy),
		)
	}
	return t
}

// LockFreeTable renders the optimistic sweep: locked vs lock-free fast
// paths, per point, with the restart/retry counters that price the
// optimism.
func (r *ScalingResult) LockFreeTable() *Table {
	t := &Table{
		Title: fmt.Sprintf("Lock-free sweep: %d-byte blocks, %.3fs window, shards on, locked vs rseq+CAS paths",
			r.BlockSize, r.Seconds),
		Headers: []string{"cpus", "nodes", "workload", "lockfree", "pairs/s",
			"lock wait", "lock hold", "restarts", "cas retries"},
	}
	onoff := map[bool]string{false: "off", true: "on"}
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%d", p.CPUs),
			fmt.Sprintf("%d", p.Nodes),
			p.Workload,
			onoff[p.LockFree],
			fmt.Sprintf("%.0f", p.PairsPerSec),
			fmt.Sprintf("%d", p.LockWaitCycles),
			fmt.Sprintf("%d", p.LockHoldCycles),
			fmt.Sprintf("%d", p.RseqRestarts),
			fmt.Sprintf("%d", p.CASRetries),
		)
	}
	return t
}
