package serve

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"
)

// traceHash is an FNV-64a over every record of tr in order: its kind,
// CPU, session, argument and the kind of the phase that holds it.
func traceHash(tr *Trace) uint64 {
	h := fnv.New64a()
	var rec [11]byte
	for _, ph := range tr.Phases {
		for _, op := range ph.Ops {
			rec[0], rec[1], rec[2] = byte(op.Kind), op.CPU, byte(ph.Kind)
			binary.LittleEndian.PutUint32(rec[3:], op.Sess)
			binary.LittleEndian.PutUint32(rec[7:], op.Arg)
			h.Write(rec[:])
		}
	}
	return h.Sum64()
}

// TestGeneratePinned freezes the generator the benchmark replays: the
// `serve` workload (benchmark/sut.go) builds its days from Generate, so
// a trace that moves moves every `serve` number. Each config must hash
// to its pinned constant, generate the same trace twice, and hold three
// phases — steady, spike, pressure — of OpsPerPhase records each.
func TestGeneratePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  GenConfig
		hash uint64
	}{
		// The benchmark's timed day at seed 1 (seed*1000003 + day + 1).
		{"benchmark seed 1", GenConfig{Seed: 1*1000003 + 2, CPUs: 8, Sessions: 1024, OpsPerPhase: 50_000}, 0x91251fc2476c8cd3},
		{"small", GenConfig{Seed: 7, CPUs: 4, Sessions: 192, OpsPerPhase: 3000}, 0x657eed28582612ab},
	} {
		tr := Generate(tc.cfg)
		if !reflect.DeepEqual(tr, Generate(tc.cfg)) {
			t.Errorf("%s: same seed generated different traces", tc.name)
		}
		if tr.NCPU != tc.cfg.CPUs {
			t.Errorf("%s: trace targets %d CPUs, want %d", tc.name, tr.NCPU, tc.cfg.CPUs)
		}
		want := []PhaseKind{PhaseSteady, PhaseSpike, PhasePressure}
		if len(tr.Phases) != len(want) {
			t.Fatalf("%s: %d phases, want %d", tc.name, len(tr.Phases), len(want))
		}
		sum := 0
		for i, ph := range tr.Phases {
			if ph.Kind != want[i] || len(ph.Ops) != tc.cfg.OpsPerPhase {
				t.Errorf("%s: phase %d is kind %d with %d ops, want kind %d with %d",
					tc.name, i, ph.Kind, len(ph.Ops), want[i], tc.cfg.OpsPerPhase)
			}
			sum += len(ph.Ops)
		}
		if tr.NumOps() != sum {
			t.Errorf("%s: NumOps %d, phases hold %d", tc.name, tr.NumOps(), sum)
		}
		if got := traceHash(tr); got != tc.hash {
			t.Errorf("%s: trace hash %#016x, pinned %#016x", tc.name, got, tc.hash)
		}
	}
}
