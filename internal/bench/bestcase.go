package bench

import (
	"fmt"
	"slices"

	"kmem/internal/allocif"
	"kmem/internal/arena"
	"kmem/internal/machine"
	"kmem/internal/workload"
)

// loopOverheadInsns models the benchmark loop around each
// kmem_alloc/kmem_free pair; the paper notes "this overhead amounts to as
// much as 40% for the faster algorithms".
const loopOverheadInsns = 17

// BestCasePoint is one (allocator, CPU count) measurement.
type BestCasePoint struct {
	Allocator     string
	CPUs          int
	Pairs         uint64
	PairsPerSec   float64
	LockContended uint64
	BusTxns       uint64
}

// BestCaseResult holds the Figure 7/8 sweep.
type BestCaseResult struct {
	CPUCounts []int
	BlockSize uint64
	Seconds   float64
	Points    map[string][]BestCasePoint // by allocator, indexed like CPUCounts
}

// RunBestCase reproduces the paper's best-case benchmark: on each CPU, a
// loop that allocates a block and immediately frees it, for a fixed
// virtual duration; the score is alloc/free pairs per second summed over
// CPUs (Figures 7 and 8).
func RunBestCase(names []string, cpuCounts []int, blockSize uint64, seconds float64) (*BestCaseResult, error) {
	return RunBestCaseCfg(names, cpuCounts, blockSize, seconds, nil)
}

// RunBestCaseCfg is RunBestCase with a machine-configuration hook, used
// by ablations that vary the hardware model (e.g. the TLB).
func RunBestCaseCfg(names []string, cpuCounts []int, blockSize uint64, seconds float64, mutate func(*machine.Config)) (*BestCaseResult, error) {
	res := &BestCaseResult{
		CPUCounts: cpuCounts,
		BlockSize: blockSize,
		Seconds:   seconds,
		Points:    map[string][]BestCasePoint{},
	}
	for _, name := range names {
		for _, ncpu := range cpuCounts {
			cfg := MachineFor(ncpu, 32<<20, 4096)
			if mutate != nil {
				mutate(&cfg)
			}
			m := machine.New(cfg)
			a, err := BuildAllocator(m, name)
			if err != nil {
				return nil, err
			}
			// Pre-fragment the heap with a background live set, as on the
			// live kernel the paper measured: a global allocator's free
			// structures become large and scattered, while the per-CPU
			// allocator's fast path is unaffected.
			prefragment(m, a)
			pairs := bestCaseLoop(m, a, blockSize, seconds)
			res.Points[name] = append(res.Points[name], BestCasePoint{
				Allocator:   name,
				CPUs:        ncpu,
				Pairs:       pairs,
				PairsPerSec: float64(pairs) / seconds,
				BusTxns:     m.BusTransactions(),
			})
		}
	}
	return res, nil
}

// bestCaseLoop warms up each CPU's path once, so cold construction cost
// is not measured, then runs the alloc-then-free loop on every CPU for
// `seconds` and returns the pairs completed.
func bestCaseLoop(m *machine.Machine, a allocif.Allocator, blockSize uint64, seconds float64) (pairs uint64) {
	for i := 0; i < m.NumCPUs(); i++ {
		c := m.CPU(i)
		if b, err := a.Alloc(c, blockSize); err == nil {
			a.Free(c, b, blockSize)
		}
	}
	m.ResetStats()
	for _, n := range m.RunFor(seconds, func(c *machine.CPU) {
		c.Work(loopOverheadInsns)
		b, err := a.Alloc(c, blockSize)
		if err == nil {
			a.Free(c, b, blockSize)
		}
	}) {
		pairs += n
	}
	return pairs
}

// Figure renders the sweep as the paper's Figure 7 (linear) or Figure 8
// (semilog).
func (r *BestCaseResult) Figure(logY bool) *Figure {
	f := &Figure{
		XLabel: "Number of CPUs",
		YLabel: "alloc/free pairs per second",
		LogY:   logY,
	}
	if logY {
		f.Title = "Figure 8: Performance of New kmem_alloc and kmem_free (semilog)"
	} else {
		f.Title = "Figure 7: Performance of New kmem_alloc and kmem_free"
	}
	for _, x := range r.CPUCounts {
		f.Xs = append(f.Xs, float64(x))
	}
	for _, name := range AllocatorNames {
		pts, ok := r.Points[name]
		if !ok {
			continue
		}
		s := Series{Name: name}
		for _, p := range pts {
			s.Ys = append(s.Ys, p.PairsPerSec)
		}
		f.Series = append(f.Series, s)
	}
	// Any extra allocators beyond the canonical four.
	for name, pts := range r.Points {
		if slices.Contains(AllocatorNames, name) {
			continue
		}
		s := Series{Name: name}
		for _, p := range pts {
			s.Ys = append(s.Ys, p.PairsPerSec)
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// prefragment populates the allocator with a long-lived mixed-size
// working set, freeing a third of it: the steady state of a live kernel.
func prefragment(m *machine.Machine, a allocif.Allocator) {
	c := m.CPU(0)
	rng := workload.NewRand(1959)
	type rec struct {
		b    arena.Addr
		size uint64
	}
	var live []rec
	for i := 0; i < 1200; i++ {
		// Continuous size spread: a long-running kernel's free blocks
		// take near-arbitrary sizes once splitting and coalescing mix.
		size := uint64(32 + rng.Intn(2048))
		b, err := a.Alloc(c, size)
		if err != nil {
			break
		}
		live = append(live, rec{b, size})
	}
	for i := 0; i < len(live); i += 3 {
		a.Free(c, live[i].b, live[i].size)
	}
}

// SpeedupTable derives each allocator's scaling from the sweep: speedup
// from 1 CPU to the largest count, and parallel efficiency
// (speedup / CPUs). The paper's headline is the top trace's near-linear
// speedup ("exhibits linear speedup on shared-memory multiprocessors").
func (r *BestCaseResult) SpeedupTable() *Table {
	last := len(r.CPUCounts) - 1
	t := &Table{
		Title: fmt.Sprintf("Speedup and parallel efficiency, 1 -> %d CPUs", r.CPUCounts[last]),
		Headers: []string{
			"allocator",
			fmt.Sprintf("pairs/s @1"),
			fmt.Sprintf("pairs/s @%d", r.CPUCounts[last]),
			"speedup", "efficiency",
		},
	}
	for _, name := range AllocatorNames {
		pts, ok := r.Points[name]
		if !ok || len(pts) <= last || pts[0].PairsPerSec == 0 {
			continue
		}
		sp := pts[last].PairsPerSec / pts[0].PairsPerSec
		eff := sp / float64(r.CPUCounts[last]) * 100
		t.AddRowf("%s|%.3g|%.3g|%.2fx|%.1f%%",
			name, pts[0].PairsPerSec, pts[last].PairsPerSec, sp, eff)
	}
	return t
}

// Ratio returns the throughput ratio a/b at the given CPU-count index
// (e.g. cookie/oldkma at 1 CPU ≈ 15 in the paper).
func (r *BestCaseResult) Ratio(a, b string, idx int) (float64, error) {
	pa, ok := r.Points[a]
	if !ok || idx >= len(pa) {
		return 0, fmt.Errorf("bench: no points for %q", a)
	}
	pb, ok := r.Points[b]
	if !ok || idx >= len(pb) {
		return 0, fmt.Errorf("bench: no points for %q", b)
	}
	if pb[idx].PairsPerSec == 0 {
		return 0, fmt.Errorf("bench: %q has zero throughput", b)
	}
	return pa[idx].PairsPerSec / pb[idx].PairsPerSec, nil
}
