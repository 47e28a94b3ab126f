//go:build torturecheck

package main

import (
	"path/filepath"
	"strings"
	"testing"

	"kmem/internal/core"
	"kmem/internal/torture"
)

// TestShrinkWritesPanicRepro: a run whose op panics fails like any other
// run, so -shrink shrinks it and writes its repro, and the repro replays
// to a failure. The committed tail-overlap repro at seed 2 is one: the
// block handed out twice corrupts a list, and popping it panics.
func TestShrinkWritesPanicRepro(t *testing.T) {
	core.SetTortureBug(core.TortureBugTailOverlap, true)
	defer core.SetTortureBug(core.TortureBugTailOverlap, false)
	r, err := torture.LoadRepro(filepath.Join("..", "..", "internal", "torture", "testdata", "tailoverlap-c4n2-faults-seed2.torture.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Runner().Run(); err == nil || !strings.Contains(err.Error(), "panic: ") {
		t.Fatalf("repro returned %v; want a panic as the failure of an op", err)
	}
	d := driver{shrink: true, outDir: t.TempDir()}
	d.replay(r)
	if d.runs != 1 || d.failures != 1 {
		t.Fatalf("runs=%d failures=%d, want 1/1", d.runs, d.failures)
	}
	paths, err := filepath.Glob(filepath.Join(d.outDir, "*.torture.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("repros written: %v, %v; want one", paths, err)
	}
	w, err := torture.LoadRepro(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Ops) > len(r.Ops) || !w.Fails() {
		t.Errorf("written repro of %d ops (fails=%v); want at most %d that still fail", len(w.Ops), w.Fails(), len(r.Ops))
	}
}
