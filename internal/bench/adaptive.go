package bench

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/physmem"
)

// AdaptiveRow is one variant's measurement on the oscillating workload.
type AdaptiveRow struct {
	Variant         string  `json:"variant"`
	FinalTarget     int     `json:"finalTarget"`
	FinalGblTarget  int     `json:"finalGblTarget"`
	PairsPerSec     float64 `json:"pairsPerSec"`
	PerCPUMissRate  float64 `json:"perCPUMissRate"`
	GlobalMissRate  float64 `json:"globalMissRate"`
	CombinedMiss    float64 `json:"combinedMissRate"`
	GlobalOps       uint64  `json:"globalOps"`
	CachedBlocks    int     `json:"cachedBlocks"`
	RefillBlocks    uint64  `json:"refillBlocks"` // blocks refilled, via the event-spine Hook
	SpillBlocks     uint64  `json:"spillBlocks"`  // blocks spilled, via the event-spine Hook
	TargetGrows     uint64  `json:"targetGrows"`
	TargetShrinks   uint64  `json:"targetShrinks"`
	GblTargetGrows  uint64  `json:"gblTargetGrows"`
	GblTargetShrink uint64  `json:"gblTargetShrinks"`
}

// AdaptiveResult holds the fixed-vs-adaptive comparison plus the final
// Stats snapshot of each run (for -json recording).
type AdaptiveResult struct {
	Bursts    int           `json:"bursts"`
	BurstSize int           `json:"burstSize"`
	BlockSize uint64        `json:"blockSize"`
	Fixed     AdaptiveRow   `json:"fixed"`
	Adaptive  AdaptiveRow   `json:"adaptive"`
	FixedSt   StatsSnapshot `json:"fixedStats"`
	AdaptSt   StatsSnapshot `json:"adaptiveStats"`
}

// RunAdaptive contrasts the paper's static target heuristic with the
// adaptive controller on the oscillating worst-case workload: repeated
// bursts of burstSize allocations followed by burstSize frees of one
// block size. With an amplitude beyond the static configuration's whole
// cached capacity (2*target per CPU plus 2*gbltarget target-sized lists
// in the global pool), every burst forces the fixed allocator through
// the coalesce-to-page layer — the expensive radix-sorted boundary the
// combined 1/(target*gbltarget) bound is supposed to keep rare. The
// adaptive allocator instead grows its targets until the oscillation is
// absorbed by the upper layers and the combined miss rate collapses.
// Both runs execute a deterministic instruction stream on the simulated
// machine, so results are exactly reproducible. The event-spine Hook
// feeds the refill/spill columns (block counts, since those events carry
// the list length) — the bench harness is a spine consumer just like
// Stats.
func RunAdaptive(bursts, burstSize int, blockSize uint64) (*AdaptiveResult, error) {
	res := &AdaptiveResult{Bursts: bursts, BurstSize: burstSize, BlockSize: blockSize}
	for _, adaptive := range []bool{false, true} {
		var events core.EventCounter
		params := core.Params{Hook: events.Hook(), Adaptive: adaptive}
		m := machine.New(MachineFor(1, 64<<20, 8192))
		al, err := core.New(m, params)
		if err != nil {
			return nil, err
		}
		ck, err := al.GetCookie(blockSize)
		if err != nil {
			return nil, err
		}
		cls := -1
		for i := 0; i < al.NumClasses(); i++ {
			if al.ClassSize(i) == ck.Size() {
				cls = i
			}
		}
		c := m.CPU(0)

		held := make([]arena.Addr, 0, burstSize)
		start := c.Now()
		for b := 0; b < bursts; b++ {
			for i := 0; i < burstSize; i++ {
				blk, err := al.AllocCookie(c, ck)
				if err != nil {
					return nil, fmt.Errorf("burst %d: %w", b, err)
				}
				held = append(held, blk)
			}
			for _, blk := range held {
				al.FreeCookie(c, blk, ck)
			}
			held = held[:0]
		}
		elapsed := m.CyclesToSeconds(c.Now() - start)

		st := al.Stats(c)
		cst := st.Classes[cls]
		row := AdaptiveRow{
			Variant:         "fixed heuristic (paper)",
			FinalTarget:     cst.Target,
			FinalGblTarget:  cst.GblTarget,
			PairsPerSec:     float64(bursts*burstSize) / elapsed,
			PerCPUMissRate:  maxf(cst.AllocMissRate(), cst.FreeMissRate()),
			GlobalMissRate:  maxf(cst.GlobalGetMissRate(), cst.GlobalPutMissRate()),
			CombinedMiss:    maxf(cst.CombinedAllocMissRate(), cst.CombinedFreeMissRate()),
			GlobalOps:       cst.GlobalGets + cst.GlobalPuts,
			CachedBlocks:    cst.HeldPerCPU + cst.HeldGlobal,
			RefillBlocks:    events.Count(core.EvCPURefill),
			SpillBlocks:     events.Count(core.EvCPUSpill),
			TargetGrows:     cst.TargetGrows,
			TargetShrinks:   cst.TargetShrinks,
			GblTargetGrows:  cst.GblTargetGrows,
			GblTargetShrink: cst.GblTargetShrinks,
		}
		if adaptive {
			row.Variant = "adaptive controller"
			res.Adaptive = row
			res.AdaptSt = NewStatsSnapshot(st)
		} else {
			res.Fixed = row
			res.FixedSt = NewStatsSnapshot(st)
		}
	}
	return res, nil
}

// Table renders the comparison.
func (r *AdaptiveResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Adaptive targets vs fixed heuristic (oscillating worst case: "+
			"%d bursts of %d x %d-byte alloc/free)", r.Bursts, r.BurstSize, r.BlockSize),
		Headers: []string{"variant", "target", "gbltarget", "pairs/sec",
			"percpu miss%", "combined miss%", "global ops", "cached", "grows/shrinks"},
	}
	for _, row := range []AdaptiveRow{r.Fixed, r.Adaptive} {
		t.AddRowf("%s|%d|%d|%.0f|%.2f|%.3f|%d|%d|%d/%d",
			row.Variant, row.FinalTarget, row.FinalGblTarget, row.PairsPerSec, row.PerCPUMissRate*100,
			row.CombinedMiss*100, row.GlobalOps, row.CachedBlocks, row.TargetGrows+row.GblTargetGrows,
			row.TargetShrinks+row.GblTargetShrink)
	}
	return t
}

// --- JSON-friendly Stats snapshot -------------------------------------------

// ClassStatsSnapshot is core.ClassStats plus its derived miss rates as
// plain fields, so a marshalled snapshot carries everything a trajectory
// plot needs (methods don't survive encoding/json).
type ClassStatsSnapshot struct {
	core.ClassStats
	AllocMissRate         float64 `json:"allocMissRate"`
	FreeMissRate          float64 `json:"freeMissRate"`
	GlobalGetMissRate     float64 `json:"globalGetMissRate"`
	GlobalPutMissRate     float64 `json:"globalPutMissRate"`
	CombinedAllocMissRate float64 `json:"combinedAllocMissRate"`
	CombinedFreeMissRate  float64 `json:"combinedFreeMissRate"`
}

// StatsSnapshot is a JSON-friendly core.Stats.
type StatsSnapshot struct {
	Classes  []ClassStatsSnapshot `json:"classes"`
	VM       core.VMStats         `json:"vm"`
	Phys     physmem.Stats        `json:"phys"`
	Reclaims uint64               `json:"reclaims"`
}

// NewStatsSnapshot converts a core.Stats, materializing the miss rates.
func NewStatsSnapshot(st core.Stats) StatsSnapshot {
	out := StatsSnapshot{VM: st.VM, Phys: st.Phys, Reclaims: st.Reclaims}
	for _, cs := range st.Classes {
		out.Classes = append(out.Classes, ClassStatsSnapshot{
			ClassStats:            cs,
			AllocMissRate:         cs.AllocMissRate(),
			FreeMissRate:          cs.FreeMissRate(),
			GlobalGetMissRate:     cs.GlobalGetMissRate(),
			GlobalPutMissRate:     cs.GlobalPutMissRate(),
			CombinedAllocMissRate: cs.CombinedAllocMissRate(),
			CombinedFreeMissRate:  cs.CombinedFreeMissRate(),
		})
	}
	return out
}
