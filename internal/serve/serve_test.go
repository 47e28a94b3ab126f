package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kmem/internal/core"
	"kmem/internal/machine"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testGen() GenConfig {
	return GenConfig{Seed: 7, CPUs: 4, Sessions: 192, OpsPerPhase: 3000}
}

func runOnce(t *testing.T, cfg GenConfig, tr *Trace) *Result {
	t.Helper()
	mcfg := machine.DefaultConfig()
	mcfg.NumCPUs = cfg.CPUs
	mcfg.Nodes = 2
	m := machine.New(mcfg)
	m.EnableSchedHash()
	a, err := core.New(m, core.Params{Latency: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, a, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServeDeterministic is the reproducibility contract: two fresh
// runs of the same seed produce identical histograms and the same
// schedule hash, and the run replays the committed golden
// byte-identically — any schedule drift fails loudly.
func TestServeDeterministic(t *testing.T) {
	cfg := testGen()
	tr := Generate(cfg)

	if !reflect.DeepEqual(tr, Generate(cfg)) {
		t.Fatal("same seed generated different traces")
	}

	r1 := runOnce(t, cfg, tr)
	r2 := runOnce(t, cfg, tr)
	if r1.SchedHash != r2.SchedHash {
		t.Errorf("schedule hash differs across fresh runs: %#x vs %#x", r1.SchedHash, r2.SchedHash)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("results differ across fresh runs")
	}

	got, err := json.MarshalIndent(r1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "golden_serve.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("run diverged from committed golden %s (re-run with -update if intended)", golden)
	}
}

// TestServeRunShape checks the functional contract of a run: every
// trace op executes, drops stay rare outside the pressure wave, the
// latency windows are populated, and quantiles are ordered.
func TestServeRunShape(t *testing.T) {
	cfg := testGen()
	tr := Generate(cfg)
	res := runOnce(t, cfg, tr)

	if res.TotalOps != tr.NumOps() {
		t.Errorf("ran %d ops, trace has %d", res.TotalOps, tr.NumOps())
	}
	if res.TotalOpen == 0 {
		t.Error("no sessions opened")
	}
	if len(res.Phases) != 3 {
		t.Fatalf("got %d phases", len(res.Phases))
	}
	names := []string{"steady", "spike", "pressure"}
	for i, pr := range res.Phases {
		if pr.Phase != names[i] {
			t.Errorf("phase %d named %q, want %q", i, pr.Phase, names[i])
		}
		if pr.AllocCount == 0 || pr.FreeCount == 0 {
			t.Errorf("phase %s: empty latency window (%d allocs, %d frees)", pr.Phase, pr.AllocCount, pr.FreeCount)
		}
		if pr.AllocP50 > pr.AllocP99 || pr.AllocP99 > pr.AllocP999 {
			t.Errorf("phase %s: alloc quantiles not ordered: %d/%d/%d", pr.Phase, pr.AllocP50, pr.AllocP99, pr.AllocP999)
		}
		if pr.FreeP50 > pr.FreeP99 || pr.FreeP99 > pr.FreeP999 {
			t.Errorf("phase %s: free quantiles not ordered: %d/%d/%d", pr.Phase, pr.FreeP50, pr.FreeP99, pr.FreeP999)
		}
		if pr.Cycles <= 0 || pr.OpsPerSec <= 0 {
			t.Errorf("phase %s: cycles %d ops/sec %f", pr.Phase, pr.Cycles, pr.OpsPerSec)
		}
		if i < 2 && pr.Drops > pr.Ops/100 {
			t.Errorf("phase %s: %d drops in %d ops before the pressure wave", pr.Phase, pr.Drops, pr.Ops)
		}
	}
}

// TestServeTeardownBalances verifies the post-run teardown returns
// every block: after Run (which closes leftover sessions and drains),
// class allocs and frees balance exactly except for blocks pinned in
// the STREAMS and DLM object caches.
func TestServeTeardownBalances(t *testing.T) {
	cfg := testGen()
	tr := Generate(cfg)
	mcfg := machine.DefaultConfig()
	mcfg.NumCPUs = cfg.CPUs
	m := machine.New(mcfg)
	a, err := core.New(m, core.Params{Latency: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, a, tr); err != nil {
		t.Fatal(err)
	}
	st := a.Stats(m.CPU(0))
	var allocs, frees uint64
	for _, cs := range st.Classes {
		allocs += cs.Allocs
		frees += cs.Frees
	}
	if allocs == 0 {
		t.Fatal("no class allocations recorded")
	}
	outstanding := allocs - frees
	// Object caches (streams mblks/dblks, dlm locks/resources) retain
	// constructed objects; everything else must have come back.
	if outstanding > allocs/4 {
		t.Errorf("%d of %d class blocks outstanding after teardown", outstanding, allocs)
	}
}
