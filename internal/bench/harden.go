package bench

import (
	"fmt"

	"kmem/internal/core"
	"kmem/internal/harden"
	"kmem/internal/machine"
)

// The harden sweep prices the corruption-hardening layer
// (internal/harden): the same steady-state alloc/free pair measured with
// Params.Harden off and on, per block size. The on-run uses the panic
// policy over a clean workload, so any false positive aborts the
// benchmark instead of skewing it. The sweep also re-measures the
// BENCH_7 objcache STREAMS pair with hardening off —
// TestBaselinesReproduce holds those points to exactly the committed
// baseline, proving the hardening hooks charge nothing while disabled.

// HardenPoint is one block size of the off/on comparison.
type HardenPoint struct {
	Size uint64
	// OffInsns and HardenInsns are simulated instructions per alloc/free
	// pair, steady state, with the hardening layer off and on.
	OffInsns    float64
	HardenInsns float64
	// OverheadPct is the hardening tax in percent of the off-path pair.
	OverheadPct float64
	// Detections must be zero: the workload is clean, and the on-run's
	// panic policy would have aborted on a false positive anyway.
	Detections uint64
}

// HardenStreamsPoint is one hardening-off re-measurement of the BENCH_7
// objcache STREAMS pair.
type HardenStreamsPoint struct {
	BufSize       uint64
	ObjCacheInsns float64
}

// HardenResult is the full sweep.
type HardenResult struct {
	Pairs         int
	Warmup        int
	Points        []HardenPoint
	StreamsPoints []HardenStreamsPoint
}

// RunHarden runs the sweep: for each size, `pairs` steady-state
// alloc/free pairs with hardening off and with hardening on, then the
// objcache STREAMS pair (hardening off) for the BENCH_7 gate.
func RunHarden(sizes []uint64, pairs int) (*HardenResult, error) {
	const warmup = 64
	res := &HardenResult{Pairs: pairs, Warmup: warmup}
	for _, size := range sizes {
		off, _, err := runHardenPairs(size, pairs, warmup, nil)
		if err != nil {
			return nil, fmt.Errorf("harden off, size %d: %w", size, err)
		}
		on, det, err := runHardenPairs(size, pairs, warmup, &harden.Config{Policy: harden.PolicyPanic})
		if err != nil {
			return nil, fmt.Errorf("harden on, size %d: %w", size, err)
		}
		res.Points = append(res.Points, HardenPoint{
			Size:        size,
			OffInsns:    off,
			HardenInsns: on,
			OverheadPct: (on - off) / off * 100,
			Detections:  det,
		})
	}
	for _, size := range sizes {
		insns, _, _, err := runObjCacheStreams(size, pairs, warmup)
		if err != nil {
			return nil, fmt.Errorf("streams size %d: %w", size, err)
		}
		res.StreamsPoints = append(res.StreamsPoints, HardenStreamsPoint{BufSize: size, ObjCacheInsns: insns})
	}
	return res, nil
}

func runHardenPairs(size uint64, pairs, warmup int, hcfg *harden.Config) (float64, uint64, error) {
	m := machine.New(MachineFor(1, 16<<20, 2048))
	al, err := core.New(m, core.Params{Harden: hcfg})
	if err != nil {
		return 0, 0, err
	}
	c := m.CPU(0)
	insns, err := insnsPerPair(c, warmup, pairs, func() error {
		b, err := al.Alloc(c, size)
		if err == nil {
			al.Free(c, b, size)
		}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	return insns, al.Stats(c).Quarantine.Detections, nil
}

// Table renders the sweep.
func (r *HardenResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf(
			"Corruption hardening: alloc/free pair off vs on (%d pairs, simulated instructions)", r.Pairs),
		Headers: []string{"size", "off insns/pair", "harden insns/pair", "overhead", "detections"},
	}
	for _, p := range r.Points {
		t.AddRowf("%d|%.1f|%.1f|%.1f%%|%d",
			p.Size, p.OffInsns, p.HardenInsns, p.OverheadPct, p.Detections)
	}
	return t
}

// StreamsTable renders the hardening-off STREAMS re-measurement.
func (r *HardenResult) StreamsTable() *Table {
	t := &Table{
		Title:   "STREAMS objcache pair with hardening off (must match BENCH_7 within noise)",
		Headers: []string{"buf size", "objcache insns/pair"},
	}
	for _, p := range r.StreamsPoints {
		t.AddRow(fmt.Sprintf("%d", p.BufSize), fmt.Sprintf("%.1f", p.ObjCacheInsns))
	}
	return t
}
