package bench

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
)

// --- A1: target sweep -------------------------------------------------------

// TargetRow is one target value's measurement under a cross-CPU
// producer/consumer workload (the global layer's stress case).
type TargetRow struct {
	Target       int
	PairsPerSec  float64
	GlobalAccess uint64  // global-layer operations
	MissRate     float64 // per-CPU layer miss rate
	CachedBlocks int     // blocks resident in per-CPU caches afterwards
}

// AblateTarget sweeps the per-CPU cache target, demonstrating the paper's
// trade-off: "the per-allocation overhead incurred in the global layer
// may be reduced to any desired level simply by increasing the value of
// target. The only penalty ... is the increased amount of memory that
// will reside in the per-CPU caches."
func AblateTarget(targets []int, seconds float64) ([]TargetRow, error) {
	var rows []TargetRow
	for _, target := range targets {
		pairsPerSec, st, err := runFIFOHandoff(core.Params{TargetFor: func(uint32) int { return target }}, 128, seconds)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TargetRow{
			Target:       target,
			PairsPerSec:  pairsPerSec,
			GlobalAccess: st.GlobalGets + st.GlobalPuts,
			MissRate:     maxf(st.AllocMissRate(), st.FreeMissRate()),
			CachedBlocks: st.HeldPerCPU,
		})
	}
	return rows, nil
}

// runFIFOHandoff is the A1/A2 workload, the global layer's stress case:
// on two CPUs, CPU 0 allocates blockSize-byte blocks and CPU 1 frees
// them, a bounded FIFO channel of blocks under a spinlock between them.
// It returns the round trips per second and the block size's class
// counters.
func runFIFOHandoff(params core.Params, blockSize uint64, seconds float64) (float64, core.ClassStats, error) {
	m := machine.New(MachineFor(2, 32<<20, 4096))
	al, err := core.New(m, params)
	if err != nil {
		return 0, core.ClassStats{}, err
	}
	ck, err := al.GetCookie(blockSize)
	if err != nil {
		return 0, core.ClassStats{}, err
	}
	fifo := make([]arena.Addr, 0, 64)
	lk := machine.NewSpinLock(m)
	ops := m.RunFor(seconds, func(c *machine.CPU) {
		if c.ID() == 0 {
			b, err := al.AllocCookie(c, ck)
			if err != nil {
				return
			}
			lk.Acquire(c)
			if len(fifo) < 64 {
				fifo = append(fifo, b)
				b = arena.NilAddr
			}
			lk.Release(c)
			if b != arena.NilAddr {
				al.FreeCookie(c, b, ck) // channel full: drop locally
			}
			return
		}
		lk.Acquire(c)
		var b arena.Addr
		if len(fifo) > 0 {
			b = fifo[0]
			fifo = fifo[1:]
		}
		lk.Release(c)
		if b != arena.NilAddr {
			al.FreeCookie(c, b, ck)
		} else {
			c.Work(20)
		}
	})
	for _, cs := range al.Stats(m.CPU(0)).Classes {
		if uint64(cs.Size) == blockSize {
			return float64(ops[0]+ops[1]) / seconds / 2, cs, nil // body runs on both CPUs
		}
	}
	return 0, core.ClassStats{}, fmt.Errorf("bench: no %d-byte class", blockSize)
}

// TargetTable renders the A1 sweep.
func TargetTable(rows []TargetRow) *Table {
	t := &Table{
		Title:   "A1: target sweep (cross-CPU producer/consumer, 128-byte blocks)",
		Headers: []string{"target", "pairs/sec", "global ops", "percpu miss%", "cached blocks"},
	}
	for _, r := range rows {
		t.AddRowf("%d|%.0f|%d|%.2f|%d",
			r.Target, r.PairsPerSec, r.GlobalAccess, r.MissRate*100, r.CachedBlocks)
	}
	return t
}

// --- A2: split freelist ------------------------------------------------------

// SplitRow compares the split main/aux freelist to a single freelist
// under cross-CPU flow.
type SplitRow struct {
	Variant     string
	PairsPerSec float64
	GlobalOps   uint64
}

// AblateSplitFreelist contrasts the split freelist against a single
// freelist under sustained cross-CPU flow (CPU 0 allocates, CPU 1 frees).
// With the split list, blocks cross the global layer in whole
// target-sized groups — one lock acquisition per `target` blocks; the
// single list exchanges them one at a time, multiplying global-layer
// traffic ("Blocks are moved in target-sized groups, preventing
// unnecessary linked-list operations").
func AblateSplitFreelist(seconds float64) ([]SplitRow, error) {
	var rows []SplitRow
	for _, disable := range []bool{false, true} {
		pairsPerSec, st, err := runFIFOHandoff(core.Params{DisableSplitFreelist: disable}, 64, seconds)
		if err != nil {
			return nil, err
		}
		name := "split main/aux (paper)"
		if disable {
			name = "single freelist (ablation)"
		}
		rows = append(rows, SplitRow{Variant: name, PairsPerSec: pairsPerSec, GlobalOps: st.GlobalGets + st.GlobalPuts})
	}
	return rows, nil
}

// SplitTable renders the A2 comparison.
func SplitTable(rows []SplitRow) *Table {
	t := &Table{
		Title:   "A2: split freelist hysteresis at the cache-size boundary",
		Headers: []string{"variant", "pairs/sec", "global-layer ops"},
	}
	for _, r := range rows {
		t.AddRowf("%s|%.0f|%d", r.Variant, r.PairsPerSec, r.GlobalOps)
	}
	return t
}

// --- A3: radix-sorted page freelists ----------------------------------------

// RadixRow compares page-recovery effectiveness with and without the
// radix-sorted (fewest-free-first) page selection policy.
type RadixRow struct {
	Policy        string
	PagesReleased uint64
	PagesCarved   uint64
	HighWater     int64
}

// AblateRadix runs a churn workload with a long-lived fraction — the
// pattern where preferring nearly-full pages lets nearly-empty ones
// drain and be released ("pages that have only a few in-use blocks
// [get] more time to gather them"). The two policies differ only in
// which page a refill picks: a free costs the same list work under
// either (core's radix filing is lazy).
func AblateRadix(rounds int) ([]RadixRow, error) {
	var rows []RadixRow
	for _, radix := range []bool{true, false} {
		m := machine.New(MachineFor(1, 64<<20, 8192))
		al, err := core.New(m, core.Params{DisableRadixSort: !radix})
		if err != nil {
			return nil, err
		}
		c := m.CPU(0)
		ck, err := al.GetCookie(256)
		if err != nil {
			return nil, err
		}
		cls := 4 // 256-byte class

		// Deterministic churn: allocate batches, free most of each batch
		// immediately, keep a sparse long-lived set that is released a
		// round later — creating mixed-occupancy pages.
		var longLived []arena.Addr
		for round := 0; round < rounds; round++ {
			var batch []arena.Addr
			for i := 0; i < 512; i++ {
				b, err := al.AllocCookie(c, ck)
				if err != nil {
					return nil, err
				}
				batch = append(batch, b)
			}
			// Free the previous round's long-lived blocks.
			for _, b := range longLived {
				al.FreeCookie(c, b, ck)
			}
			longLived = longLived[:0]
			for i, b := range batch {
				if i%16 == 0 {
					longLived = append(longLived, b)
				} else {
					al.FreeCookie(c, b, ck)
				}
			}
			al.DrainCPU(c, 0)
		}
		for _, b := range longLived {
			al.FreeCookie(c, b, ck)
		}
		al.DrainAll(c)
		st := al.Stats(c)
		policy := "radix fewest-free-first (paper)"
		if !radix {
			policy = "FIFO page selection (ablation)"
		}
		rows = append(rows, RadixRow{
			Policy:        policy,
			PagesReleased: st.Classes[cls].PageFrees,
			PagesCarved:   st.Classes[cls].PageAllocs,
			HighWater:     st.Phys.HighWater,
		})
	}
	return rows, nil
}

// RadixTable renders the A3 comparison.
func RadixTable(rows []RadixRow) *Table {
	t := &Table{
		Title: "A3: page selection policy (256-byte churn with long-lived fraction); " +
			"fewer pages carved = better page reuse",
		Headers: []string{"policy", "pages carved", "pages released", "phys high water"},
	}
	for _, r := range rows {
		t.AddRowf("%s|%d|%d|%d", r.Policy, r.PagesCarved, r.PagesReleased, r.HighWater)
	}
	return t
}

// --- A5: TLB model -----------------------------------------------------------

// TLBRow compares throughput with the TLB model off (default) and on.
type TLBRow struct {
	Allocator   string
	TLB         string
	PairsPerSec float64
}

// AblateTLB quantifies the paper's footnote ("There are also variations
// in the number of TLB misses"): the best-case loop with the optional
// per-CPU TLB model enabled. The per-CPU allocator's tight working set
// barely notices; the old allocator's scattered heap walk pays more.
func AblateTLB(seconds float64) ([]TLBRow, error) {
	var rows []TLBRow
	for _, entries := range []int{0, 64} {
		e := entries
		label := "off"
		if e > 0 {
			label = fmt.Sprintf("%d entries", e)
		}
		// Steady-state loop: tiny page working set, expect ~no effect
		// (the footnote's point — a secondary variation).
		res, err := RunBestCaseCfg([]string{"cookie", "oldkma"}, []int{1}, 128, seconds,
			func(cfg *machine.Config) { cfg.TLBEntries = e })
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"cookie", "oldkma"} {
			rows = append(rows, TLBRow{
				Allocator:   name + " best-case",
				TLB:         label,
				PairsPerSec: res.Points[name][0].PairsPerSec,
			})
		}
		// Worst-case fill/drain walks every page once: the TLB model
		// shows up here.
		wc, err := RunWorstCaseCfg([]uint64{256}, 512,
			func(cfg *machine.Config) { cfg.TLBEntries = e })
		if err != nil {
			return nil, err
		}
		rows = append(rows, TLBRow{
			Allocator:   "newkma worst-case 256B",
			TLB:         label,
			PairsPerSec: wc.Points[0].PairsPerSec,
		})
	}
	return rows, nil
}

// TLBTable renders the A5 comparison.
func TLBTable(rows []TLBRow) *Table {
	t := &Table{
		Title:   "A5: TLB model (paper footnote: 'variations in the number of TLB misses')",
		Headers: []string{"workload", "TLB", "pairs/sec (1 CPU)"},
	}
	for _, r := range rows {
		t.AddRowf("%s|%s|%.0f", r.Allocator, r.TLB, r.PairsPerSec)
	}
	return t
}

// --- A4: lazy buddy ----------------------------------------------------------

// LazyRow compares the lazy buddy road-not-taken against this allocator.
type LazyRow struct {
	Allocator   string
	CPUs        int
	PairsPerSec float64
}

// AblateLazyBuddy runs the best-case loop for the lazy buddy system next
// to the paper's allocator at 1 and 8 CPUs: lazy buddy is quick on one
// CPU but its global lock forfeits scaling (goals 3 and 4).
func AblateLazyBuddy(seconds float64) ([]LazyRow, error) {
	var rows []LazyRow
	for _, name := range []string{"cookie", "lazybuddy"} {
		for _, ncpu := range []int{1, 8} {
			m := machine.New(MachineFor(ncpu, 32<<20, 4096))
			a, err := BuildAllocator(m, name)
			if err != nil {
				return nil, err
			}
			pairs := bestCaseLoop(m, a, 128, seconds)
			rows = append(rows, LazyRow{Allocator: name, CPUs: ncpu, PairsPerSec: float64(pairs) / seconds})
		}
	}
	return rows, nil
}

// LazyTable renders the A4 comparison.
func LazyTable(rows []LazyRow) *Table {
	t := &Table{
		Title:   "A4: lazy buddy (road not taken) vs per-CPU allocator, best-case loop",
		Headers: []string{"allocator", "CPUs", "pairs/sec"},
	}
	for _, r := range rows {
		t.AddRowf("%s|%d|%.0f", r.Allocator, r.CPUs, r.PairsPerSec)
	}
	return t
}
