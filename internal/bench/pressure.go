package bench

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
)

// The pressure sweep exercises the memory-pressure machinery end to end:
// a page-hungry working set is driven through an allocator whose
// physical pool shrinks point by point, first with the fail-fast Alloc
// (KM_NOSLEEP) and then with the blocking AllocWait (KM_SLEEP). The
// interesting contrast is the failure column: the no-sleep caller eats
// every transient exhaustion, while the blocking caller rides out the
// same shortage on the wait queue and almost always completes — at the
// price of the waits and reclaim steps tallied beside it.

// PressureRow is one (nodes, pages, mode) measurement.
type PressureRow struct {
	Nodes        int     `json:"nodes"`
	PhysPages    int64   `json:"physPages"`
	Mode         string  `json:"mode"` // "nosleep" or "wait"
	Allocs       uint64  `json:"allocs"`
	Failures     uint64  `json:"failures"`
	Waits        uint64  `json:"waits"`
	Wakes        uint64  `json:"wakes"`
	ReclaimSteps uint64  `json:"reclaimSteps"`
	Reclaims     uint64  `json:"reclaims"` // stop-the-world flushes
	Transitions  uint64  `json:"transitions"`
	FinalLevel   string  `json:"finalLevel"`
	HighWater    int64   `json:"highWater"`
	VirtualMS    float64 `json:"virtualMS"`
}

// PressureResult is the full sweep.
type PressureResult struct {
	CPUs   int           `json:"cpus"`
	Rounds int           `json:"rounds"`
	Rows   []PressureRow `json:"rows"`
}

// RunPressure sweeps node counts and physical-pool sizes. Each point runs
// the same deterministic churn — every CPU builds a page-sized working
// set oversubscribing the pool, freeing its oldest blocks as it goes —
// once with Alloc and once with AllocWait.
func RunPressure(cpus int, nodeCounts []int, pagesList []int64, rounds int) (*PressureResult, error) {
	res := &PressureResult{CPUs: cpus, Rounds: rounds}
	for _, nodes := range nodeCounts {
		for _, pages := range pagesList {
			for _, wait := range []bool{false, true} {
				row, err := runPressurePoint(cpus, nodes, pages, rounds, wait)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

func runPressurePoint(cpus, nodes int, pages int64, rounds int, wait bool) (PressureRow, error) {
	cfg := MachineFor(cpus, 64<<20, pages)
	cfg.Nodes = nodes
	m := machine.New(cfg)
	al, err := core.New(m, core.Params{
		Pressure: &core.PressureConfig{}, // default watermarks: capacity/8, capacity/32
		Wait: &core.WaitConfig{
			MaxWaits:          8,
			BaseBackoffCycles: 2048,
			MaxBackoffCycles:  1 << 16,
		},
	})
	if err != nil {
		return PressureRow{}, err
	}

	// Working set: the CPUs together hold every data page, so the
	// steady-state churn runs at the critical watermark. Each round a CPU
	// at its quota frees its oldest block and the *next* CPU allocates:
	// the freed page is stranded in the freeing CPU's cache, and the
	// allocating CPU can only recover it through the pressure machinery
	// (incremental reclaim, and in wait mode the bounded backoff).
	dataPages := pages - 8 // one vmblk's header
	ws := int(dataPages)/cpus + 1
	if ws < 2 {
		ws = 2
	}
	mode := "nosleep"
	if wait {
		mode = "wait"
	}
	row := PressureRow{Nodes: nodes, PhysPages: pages, Mode: mode}
	live := make([][]arena.Addr, cpus)
	for r := 0; r < rounds; r++ {
		// One CPU plays the freer this round: its oldest blocks land in
		// its own cache, invisible to the other CPUs' fast paths.
		freer := r % cpus
		if len(live[freer]) > 0 {
			al.Free(m.CPU(freer), live[freer][0], 4096)
			live[freer] = live[freer][1:]
		}
		// Everyone else allocates toward quota; at steady state the only
		// free pages are the ones stranded above.
		for i := 0; i < cpus; i++ {
			if i == freer && cpus > 1 {
				continue
			}
			if len(live[i]) >= ws {
				continue
			}
			c := m.CPU(i)
			var b arena.Addr
			var err error
			if wait {
				b, err = al.AllocWait(c, 4096)
			} else {
				b, err = al.Alloc(c, 4096)
			}
			if err != nil {
				row.Failures++
				continue
			}
			row.Allocs++
			live[i] = append(live[i], b)
		}
	}
	for i := 0; i < cpus; i++ {
		c := m.CPU(i)
		for _, b := range live[i] {
			al.Free(c, b, 4096)
		}
	}
	al.DrainAll(m.CPU(0))
	if err := al.CheckConsistency(); err != nil {
		return PressureRow{}, fmt.Errorf("bench: post-pressure consistency (%s): %w", mode, err)
	}

	st := al.Stats(m.CPU(0))
	row.Waits = st.Pressure.Waits
	row.Wakes = st.Pressure.Wakes
	row.ReclaimSteps = st.Pressure.ReclaimSteps
	row.Reclaims = st.Reclaims
	row.Transitions = st.Pressure.Transitions
	row.FinalLevel = st.Pressure.Level.String()
	row.HighWater = st.Phys.HighWater
	var maxNow int64
	for i := 0; i < cpus; i++ {
		if now := m.CPU(i).Now(); now > maxNow {
			maxNow = now
		}
	}
	row.VirtualMS = m.CyclesToSeconds(maxNow) * 1e3
	return row, nil
}

// Table renders the sweep.
func (r *PressureResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Memory-pressure sweep: %d CPUs, %d rounds, 4096-byte churn oversubscribing the pool by one block per CPU",
			r.CPUs, r.Rounds),
		Headers: []string{"nodes", "pages", "mode", "allocs", "failures",
			"waits", "wakes", "reclaim steps", "reclaims", "transitions", "virtual ms"},
	}
	for _, row := range r.Rows {
		t.AddRowf("%d|%d|%s|%d|%d|%d|%d|%d|%d|%d|%.1f",
			row.Nodes, row.PhysPages, row.Mode, row.Allocs, row.Failures, row.Waits, row.Wakes,
			row.ReclaimSteps, row.Reclaims, row.Transitions, row.VirtualMS)
	}
	return t
}
