package bench

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/workload"
)

// The cyclic commercial workload from the paper's design discussion:
// "the machine might be used for data entry and queries as part of a
// distributed database during the day, and for backups and database
// reorganization at night. These different activities often require
// different sizes of memory allocations." The allocator must move
// memory between size classes across phases with no reboot and no
// offline pause — the requirement behind design goal 6.

// CyclicRow is one phase of one day/night cycle.
type CyclicRow struct {
	Cycle     int
	Phase     string
	Allocs    int
	Failures  int
	HighWater int64 // physical pages, cumulative high water
	VirtualMS float64
}

// CyclicResult is the full run plus coalescing totals.
type CyclicResult struct {
	Rows          []CyclicRow
	PagesReleased uint64
	Reclaims      uint64
	PhysPages     int64
}

// RunCyclic runs the day/night cycle `cycles` times under tight physical
// memory, so each phase only fits if coalescing returned the previous
// phase's memory.
func RunCyclic(cycles int, physPages int64) (*CyclicResult, error) {
	m := machine.New(MachineFor(1, 64<<20, physPages))
	al, err := core.New(m, core.Params{})
	if err != nil {
		return nil, err
	}
	c := m.CPU(0)
	rng := workload.NewRand(42)
	phases := workload.Cyclic(20000, 2000)

	type block struct {
		addr arena.Addr
		size uint64
	}
	res := &CyclicResult{PhysPages: physPages}
	for cycle := 1; cycle <= cycles; cycle++ {
		for _, ph := range phases {
			var live []block
			allocs, failures := 0, 0
			for op := 0; op < ph.Ops; op++ {
				if len(live) < ph.WorkingSet {
					size := ph.Sizes.Next(rng)
					b, err := al.Alloc(c, size)
					if err != nil {
						failures++
						continue
					}
					allocs++
					live = append(live, block{b, size})
				} else {
					i := rng.Intn(len(live))
					al.Free(c, live[i].addr, live[i].size)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, b := range live {
				al.Free(c, b.addr, b.size)
			}
			st := al.Stats(c)
			res.Rows = append(res.Rows, CyclicRow{
				Cycle:     cycle,
				Phase:     ph.Name,
				Allocs:    allocs,
				Failures:  failures,
				HighWater: st.Phys.HighWater,
				VirtualMS: m.CyclesToSeconds(c.Now()) * 1e3,
			})
		}
	}
	if err := al.CheckConsistency(); err != nil {
		return nil, fmt.Errorf("bench: post-cyclic consistency: %w", err)
	}
	st := al.Stats(c)
	for _, cs := range st.Classes {
		res.PagesReleased += cs.PageFrees
	}
	res.Reclaims = st.Reclaims
	return res, nil
}

// Table renders the cyclic run.
func (r *CyclicResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf(
			"Cyclic day/night workload under %d physical pages: %d pages released by coalescing, %d low-memory reclaims",
			r.PhysPages, r.PagesReleased, r.Reclaims),
		Headers: []string{"cycle", "phase", "allocs", "failures", "phys high water", "virtual ms"},
	}
	for _, row := range r.Rows {
		t.AddRowf("%d|%s|%d|%d|%d/%d|%.1f",
			row.Cycle, row.Phase, row.Allocs, row.Failures, row.HighWater, r.PhysPages, row.VirtualMS)
	}
	return t
}
