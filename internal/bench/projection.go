package bench

import (
	"kmem/internal/machine"
)

// The paper's closing prediction: "Hardware monitors indicate that the
// common case of the two fast algorithms are free from the cache-thrashing
// that accounted for so much of the original algorithm's execution time.
// We therefore expect that the allocator will continue to scale well with
// increasing processor speeds." — and its motivation: "the speed of
// synchronization primitives (such as spinlocks) has not increased as
// rapidly as the speed of other instructions."
//
// This experiment replays the best-case benchmark under successive
// hardware generations in which instruction execution gets faster while
// bus transfers and locked operations do not keep pace (i.e. their
// relative cost in CPU cycles grows). The per-CPU allocator's advantage
// must widen, exactly as predicted.

// Era is one hardware generation's cost ratios.
type Era struct {
	Name         string
	MissCycles   int64
	BusCycles    int64
	AtomicCycles int64
}

// Eras is the default progression: the paper's Symmetry (1990s), a
// late-90s SMP, and a 2000s-style machine where a cache miss costs
// hundreds of instruction slots.
var Eras = []Era{
	{Name: "1993 (paper)", MissCycles: 40, BusCycles: 16, AtomicCycles: 40},
	{Name: "late 1990s", MissCycles: 100, BusCycles: 40, AtomicCycles: 100},
	{Name: "2000s", MissCycles: 300, BusCycles: 120, AtomicCycles: 250},
}

// ProjectionRow is one era's measurement.
type ProjectionRow struct {
	Era            string
	CookiePerCPU   float64 // pairs/s/CPU at 8 CPUs
	OldKMATotal    float64 // pairs/s at 8 CPUs (lock-bound, does not scale)
	Advantage      float64 // cookie total / oldkma total at 8 CPUs
	CookieSpeedup8 float64 // cookie 8-CPU speedup over its own 1-CPU rate
}

// RunProjection measures each era.
func RunProjection(seconds float64) ([]ProjectionRow, error) {
	var rows []ProjectionRow
	for _, era := range Eras {
		e := era
		res, err := RunBestCaseCfg([]string{"cookie", "oldkma"}, []int{1, 8}, 128, seconds,
			func(cfg *machine.Config) {
				cfg.MissCycles = e.MissCycles
				cfg.BusCycles = e.BusCycles
				cfg.AtomicCycles = e.AtomicCycles
			})
		if err != nil {
			return nil, err
		}
		ck1 := res.Points["cookie"][0].PairsPerSec
		ck8 := res.Points["cookie"][1].PairsPerSec
		old8 := res.Points["oldkma"][1].PairsPerSec
		rows = append(rows, ProjectionRow{
			Era:            era.Name,
			CookiePerCPU:   ck8 / 8,
			OldKMATotal:    old8,
			Advantage:      ck8 / old8,
			CookieSpeedup8: ck8 / ck1,
		})
	}
	return rows, nil
}

// ProjectionTable renders the eras.
func ProjectionTable(rows []ProjectionRow) *Table {
	t := &Table{
		Title: "Projection: widening CPU/memory gap (paper: the allocator " +
			"\"will continue to scale well with increasing processor speeds\")",
		Headers: []string{"era", "cookie pairs/s/cpu", "cookie 8-cpu speedup", "oldkma pairs/s (8 cpu)", "advantage"},
	}
	for _, r := range rows {
		t.AddRowf("%s|%.3g|%.2fx|%.3g|%.0fx",
			r.Era, r.CookiePerCPU, r.CookieSpeedup8, r.OldKMATotal, r.Advantage)
	}
	return t
}
