package bench

// The serving-simulation sweep (EXPERIMENTS.md E17): one seeded
// three-phase trace — diurnal steady state, a flash-crowd spike, a
// pressure wave — executed at a fixed CPU count across node counts,
// with the optimistic fast paths (rseq + lock-free global layer) off
// and on. Per phase it reports the alloc/free latency quantiles from
// the core event spine's histograms; TestBaselinesReproduce holds a
// fresh sweep equal to the committed baseline (BENCH_10.json).

import (
	"fmt"

	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/serve"
)

// ServePoint is one (nodes, lockfree) cell of the serving sweep.
type ServePoint struct {
	CPUs     int
	Nodes    int
	LockFree bool

	// SchedHash is the run's schedule hash in hex — the determinism
	// fingerprint compared against the committed baseline.
	SchedHash string

	TotalOps  int
	TotalOpen int
	Drops     int

	Phases []serve.PhaseResult
}

// ServeResult is the full sweep.
type ServeResult struct {
	Seed        uint64
	CPUs        int
	Sessions    int
	OpsPerPhase int
	Points      []ServePoint
}

// ServeDefaults returns the committed-baseline sweep configuration.
func ServeDefaults() serve.GenConfig {
	return serve.GenConfig{Seed: 10, CPUs: 8, Sessions: 1024, OpsPerPhase: 34000}
}

// RunServe executes the serving sweep: the trace from cfg, replayed on
// machines of 1, 2 and 4 nodes with the optimistic fast paths off and
// on. The same trace bytes drive every point, so cells differ only in
// machine shape and allocator configuration.
func RunServe(cfg serve.GenConfig, nodeCounts []int) (*ServeResult, error) {
	tr := serve.Generate(cfg)
	res := &ServeResult{
		Seed:        cfg.Seed,
		CPUs:        cfg.CPUs,
		Sessions:    cfg.Sessions,
		OpsPerPhase: cfg.OpsPerPhase,
	}
	for _, nodes := range nodeCounts {
		for _, lockfree := range []bool{false, true} {
			// 16 MB of physical memory against the pressure phase's hold
			// wave: the watermarks are actually crossed, so the pressure
			// window's tail includes degraded targets and reclaim.
			mcfg := MachineFor(cfg.CPUs, 64<<20, 4096)
			mcfg.Nodes = nodes
			m := machine.New(mcfg)
			m.EnableSchedHash()
			a, err := core.New(m, core.Params{
				Latency:  true,
				Rseq:     lockfree,
				LockFree: lockfree,
				Pressure: &core.PressureConfig{},
			})
			if err != nil {
				return nil, err
			}
			r, err := serve.Run(m, a, tr)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, ServePoint{
				CPUs:      cfg.CPUs,
				Nodes:     nodes,
				LockFree:  lockfree,
				SchedHash: fmt.Sprintf("%016x", r.SchedHash),
				TotalOps:  r.TotalOps,
				TotalOpen: r.TotalOpen,
				Drops:     r.Drops,
				Phases:    r.Phases,
			})
		}
	}
	return res, nil
}

// Table renders the sweep: one row per (nodes, lockfree, phase) with
// throughput and the alloc/free latency quantiles in cycles.
func (r *ServeResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("serving simulation: %d CPUs, %d sessions, %d ops/phase, seed %d",
			r.CPUs, r.Sessions, r.OpsPerPhase, r.Seed),
		Headers: []string{"nodes", "fastpath", "phase", "ops/sec", "drops",
			"alloc p50/p99/p999", "free p50/p99/p999"},
	}
	for _, p := range r.Points {
		fp := "locked"
		if p.LockFree {
			fp = "rseq+lf"
		}
		for _, ph := range p.Phases {
			t.AddRowf("%d|%s|%s|%.0f|%d|%d/%d/%d|%d/%d/%d",
				p.Nodes, fp, ph.Phase, ph.OpsPerSec, ph.Drops, ph.AllocP50, ph.AllocP99, ph.AllocP999,
				ph.FreeP50, ph.FreeP99, ph.FreeP999)
		}
	}
	return t
}
