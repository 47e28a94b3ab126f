package bench

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/workload"
)

// The fragmentation sweep measures the virtual-span redesign's triple —
// reserved, resident, live — through repeated grow/churn/shrink/trim
// cycles, in both backing modes. Eager backing maps pages as spans are
// carved and unmaps them as spans coalesce, so resident tracks live
// closely; lazy backing over-reserves virtual spans, commits frames at
// first carve, and keeps the backing of freed spans until a trim strips
// it, so resident decays in steps at each trim. The committed baseline
// (BENCH_6.json) lets CI flag any change that inflates the resident
// footprint at equal live bytes.

// FragPoint is one sample of the fragmentation triple.
type FragPoint struct {
	Mode  string // "eager" or "lazy"
	Cycle int
	Phase string // grow | churn | shrink | trim | final
	Live  int    // live blocks at sample time

	ReservedBytes uint64
	ResidentBytes uint64
	LiveBytes     uint64
	ResidentRatio float64 // resident/reserved
	Utilization   float64 // live/resident

	PagesCommit   uint64 // cumulative on-demand commits (lazy only)
	PagesDecommit uint64 // cumulative free-span decommits (lazy only)
	Failures      int    // cumulative allocation failures in this mode
}

// FragResult is the full sweep: both modes over the same seeded workload.
type FragResult struct {
	Cycles    int
	PhysPages int64
	Points    []FragPoint
}

// RunFrag runs the grow/churn/shrink/trim workload once per backing mode
// and samples the fragmentation triple after every phase.
func RunFrag(cycles int, physPages int64) (*FragResult, error) {
	res := &FragResult{Cycles: cycles, PhysPages: physPages}
	for _, mode := range []string{"eager", "lazy"} {
		if err := res.runMode(mode); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (res *FragResult) runMode(mode string) error {
	m := machine.New(MachineFor(1, 64<<20, res.PhysPages))
	al, err := core.New(m, core.Params{LazySpans: mode == "lazy"})
	if err != nil {
		return err
	}
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes
	rng := workload.NewRand(1993)
	sizes := workload.NewChoice(
		[]uint64{32, 128, 512, 2048, 4096, 3 * pageBytes, 6 * pageBytes},
		[]int{8, 8, 6, 4, 3, 2, 1})

	type block struct {
		addr arena.Addr
		size uint64
	}
	var live []block
	failures := 0
	alloc := func() {
		size := sizes.Next(rng)
		b, err := al.Alloc(c, size)
		if err != nil {
			failures++
			return
		}
		live = append(live, block{b, size})
	}
	freeOne := func() {
		i := rng.Intn(len(live))
		al.Free(c, live[i].addr, live[i].size)
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	sample := func(cycle int, phase string) {
		st := al.Stats(c)
		res.Points = append(res.Points, FragPoint{
			Mode:          mode,
			Cycle:         cycle,
			Phase:         phase,
			Live:          len(live),
			ReservedBytes: st.Frag.ReservedBytes,
			ResidentBytes: st.Frag.ResidentBytes,
			LiveBytes:     st.Frag.LiveBytes,
			ResidentRatio: st.Frag.ResidentRatio(),
			Utilization:   st.Frag.Utilization(),
			PagesCommit:   st.VM.PagesCommit,
			PagesDecommit: st.VM.PagesDecommit,
			Failures:      failures,
		})
	}

	const wsHigh, wsLow = 1200, 80
	for cycle := 1; cycle <= res.Cycles; cycle++ {
		stalls := 0
		for len(live) < wsHigh {
			n := len(live)
			alloc()
			if len(live) == n {
				if stalls++; stalls > 1000 {
					return fmt.Errorf("bench: frag grow phase starved at %d blocks (%s mode)", n, mode)
				}
			} else {
				stalls = 0
			}
		}
		sample(cycle, "grow")
		for op := 0; op < 4000; op++ {
			if rng.Intn(2) == 0 && len(live) > 0 {
				freeOne()
			} else {
				alloc()
			}
		}
		sample(cycle, "churn")
		for len(live) > wsLow {
			freeOne()
		}
		sample(cycle, "shrink")
		// The kswapd moment: flush every cache so free memory coalesces,
		// and (lazy mode) strip the backing of the coalesced spans.
		al.DrainAll(c)
		sample(cycle, "trim")
	}
	for _, b := range live {
		al.Free(c, b.addr, b.size)
	}
	live = live[:0]
	al.DrainAll(c)
	if err := al.CheckConsistency(); err != nil {
		return fmt.Errorf("bench: post-frag consistency (%s): %w", mode, err)
	}
	// Steady state: nothing live, everything coalesced and trimmed; the
	// resident footprint is the vmblk-header floor.
	sample(res.Cycles, "final")
	return nil
}

// Table renders the sweep.
func (r *FragResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf(
			"Fragmentation triple over %d grow/churn/shrink/trim cycles (%d physical pages)",
			r.Cycles, r.PhysPages),
		Headers: []string{"mode", "cycle", "phase", "live blks",
			"reserved KB", "resident KB", "live KB", "res/rsv", "live/res",
			"commits", "decommits", "failures"},
	}
	for _, p := range r.Points {
		t.AddRowf("%s|%d|%s|%d|%d|%d|%d|%.3f|%.3f|%d|%d|%d",
			p.Mode, p.Cycle, p.Phase, p.Live, p.ReservedBytes>>10, p.ResidentBytes>>10,
			p.LiveBytes>>10, p.ResidentRatio, p.Utilization, p.PagesCommit, p.PagesDecommit,
			p.Failures)
	}
	return t
}
