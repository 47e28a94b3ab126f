package bench

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
)

// queueCap bounds each producer/consumer handoff queue; a full queue
// makes the producer idle, a drained one makes the consumer idle, so
// neither side free-runs.
const queueCap = 64

// pairWindow is what one measurement window of a cookie alloc/free pair
// workload yields (runPairs).
type pairWindow struct {
	pairs         uint64  // round trips completed in the window
	busTxnsPerBus float64 // mean transactions per node-local bus
	busOccupancy  float64 // mean fraction of each bus's window spent occupied
	icTxns        uint64  // transactions that crossed the node interconnect
	// The allocator's counters when the window opened (zero unless asked
	// for) and when it closed; they only ever grow, so after minus before
	// is the window's activity.
	before, after core.Stats
}

// runPairs builds a machine and an allocator, runs blockSize-byte cookie
// alloc/free pairs on every CPU for a quarter window to get past the
// carve-heavy start, resets the machine's counters and measures a clean
// window of `seconds`.
//
// With route nil every CPU frees each block where it allocated it.
// Otherwise route(id, n) makes CPU id a producer on its n-th step —
// allocate and enqueue for the consumer CPU it returns — or, negative, a
// consumer that dequeues and frees; a pair completes at the free.
//
// snapBefore also records the counters as the window opens. The snapshot
// visits every CPU's caches under their locks and so is part of the
// schedule: a sweep that reports since-boot counters must not take it.
func runPairs(cfg machine.Config, params core.Params, blockSize uint64, seconds float64,
	route func(id, n int) int, snapBefore bool) (*pairWindow, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("bench: a measurement window must be positive, got %v seconds", seconds)
	}
	m := machine.New(cfg)
	a, err := core.New(m, params)
	if err != nil {
		return nil, err
	}
	ck, err := a.GetCookie(blockSize)
	if err != nil {
		return nil, err
	}

	pairs := make([]uint64, cfg.NumCPUs)
	body := func(c *machine.CPU) {
		b, err := a.AllocCookie(c, ck)
		if err != nil {
			c.Idle(100)
			return
		}
		a.FreeCookie(c, b, ck)
		pairs[c.ID()]++
	}
	if route != nil {
		queues := make([][]arena.Addr, cfg.NumCPUs) // indexed by consumer CPU
		steps := make([]int, cfg.NumCPUs)           // per-producer step counter
		body = func(c *machine.CPU) {
			id := c.ID()
			if to := route(id, steps[id]); to >= 0 {
				steps[id]++
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
	}

	m.RunFor(seconds/4, body)
	m.ResetStats()
	clear(pairs)
	w := &pairWindow{}
	if snapBefore {
		w.before = a.Stats(m.CPU(0))
	}
	m.RunFor(seconds, body)

	for _, p := range pairs {
		w.pairs += p
	}
	w.busTxnsPerBus = float64(m.BusTransactions()) / float64(cfg.Nodes)
	w.busOccupancy = w.busTxnsPerBus * float64(cfg.BusCycles) / float64(m.SecondsToCycles(seconds))
	w.icTxns = m.InterconnectTransactions()
	w.after = a.Stats(m.CPU(0))
	return w, nil
}

// insnsPerPair runs pair warmup times unmeasured and then pairs times,
// and returns the instructions c executed per measured pair.
func insnsPerPair(c *machine.CPU, warmup, pairs int, pair func() error) (float64, error) {
	var start uint64
	for i := 0; i < warmup+pairs; i++ {
		if i == warmup {
			start = c.Stats().Instructions
		}
		if err := pair(); err != nil {
			return 0, err
		}
	}
	return float64(c.Stats().Instructions-start) / float64(pairs), nil
}
