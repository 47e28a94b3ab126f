package bench

import (
	"os"
	"testing"
)

func TestBestCaseShapes(t *testing.T) {
	// Short sweep; assert the paper's qualitative claims.
	res, err := RunBestCase(AllocatorNames, []int{1, 2, 4, 8, 16, 25}, 128, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	res.Figure(false).Fprint(os.Stderr)

	// cookie scales near-linearly: 25 CPUs >= 15x of 1 CPU.
	ck := res.Points["cookie"]
	if ck[5].PairsPerSec < 15*ck[0].PairsPerSec {
		t.Errorf("cookie not near-linear: 1cpu=%.0f 25cpu=%.0f", ck[0].PairsPerSec, ck[5].PairsPerSec)
	}
	// newkma roughly half of cookie (paper: "roughly half as fast").
	r, _ := res.Ratio("cookie", "newkma", 5)
	if r < 1.3 || r > 3.5 {
		t.Errorf("cookie/newkma at 25 CPUs = %.2f, want ~2", r)
	}
	// cookie >= ~10x oldkma at 1 CPU (paper: 15x).
	r, _ = res.Ratio("cookie", "oldkma", 0)
	if r < 6 {
		t.Errorf("cookie/oldkma at 1 CPU = %.2f, want >= ~10", r)
	}
	// Lock-based baselines do not scale: best <= 2x their 1-CPU rate.
	for _, name := range []string{"mk", "oldkma"} {
		pts := res.Points[name]
		for _, p := range pts[1:] {
			if p.PairsPerSec > 2.5*pts[0].PairsPerSec {
				t.Errorf("%s scaled unexpectedly: 1cpu=%.0f %dcpu=%.0f",
					name, pts[0].PairsPerSec, p.CPUs, p.PairsPerSec)
			}
		}
	}
	// cookie at 25 CPUs must dominate oldkma at 25 CPUs by orders of
	// magnitude (paper: >1000x).
	r, _ = res.Ratio("cookie", "oldkma", 5)
	if r < 100 {
		t.Errorf("cookie/oldkma at 25 CPUs = %.0f, want >> 100", r)
	}
	t.Logf("ratios: cookie/oldkma@1=%.1f cookie/oldkma@25=%.0f", mustRatio(t, res, "cookie", "oldkma", 0), mustRatio(t, res, "cookie", "oldkma", 5))
}

func mustRatio(t *testing.T, r *BestCaseResult, a, b string, i int) float64 {
	t.Helper()
	v, err := r.Ratio(a, b, i)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestWorstCaseShapes(t *testing.T) {
	sizes := []uint64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	res, err := RunWorstCase(sizes, 1024)
	if err != nil {
		t.Fatal(err)
	}
	res.Figure().Fprint(os.Stderr)
	// Large blocks must be slower than small ones (VM traffic per pair).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.PairsPerSec >= first.PairsPerSec {
		t.Errorf("worst case not decreasing: 16B=%.0f 8KB=%.0f", first.PairsPerSec, last.PairsPerSec)
	}
	// Small-block frees dearer than allocations (per-free page lookup).
	if res.Points[0].FreePerSec >= res.Points[0].AllocPerSec {
		t.Errorf("16B frees (%.0f/s) should be slower than allocs (%.0f/s)",
			res.Points[0].FreePerSec, res.Points[0].AllocPerSec)
	}
}

func TestWorstCaseWedgesMK(t *testing.T) {
	// The paper: "an allocator that does no coalescing would fail to
	// complete this benchmark". Verify the demonstration.
	rows, err := RunWorstCaseAny("mk", []uint64{16, 1024, 4096}, 128)
	if err != nil {
		t.Fatal(err)
	}
	WorstCaseAnyTable("mk", rows).Fprint(os.Stderr)
	if !rows[0].Completed {
		t.Fatal("mk failed even its first size")
	}
	for _, r := range rows[1:] {
		if r.Completed {
			t.Fatalf("mk completed size %d after fragmenting memory", r.BlockSize)
		}
	}
	// The paper's allocator must complete every size on the same script.
	rows, err = RunWorstCaseAny("newkma", []uint64{16, 1024, 4096}, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Completed {
			t.Fatalf("newkma wedged at size %d", r.BlockSize)
		}
	}
}

func TestDLMMissRates(t *testing.T) {
	cfg := DefaultDLMConfig()
	res, err := RunDLM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Table().Fprint(os.Stderr)
	if res.Locks != res.Unlocks {
		t.Errorf("lock/unlock imbalance: %d vs %d", res.Locks, res.Unlocks)
	}
	if res.Messages == 0 {
		t.Error("no cross-node messages")
	}
	// Every class's measured rates must respect the paper's worst-case
	// bounds: per-CPU miss at most 1/target, global miss at most
	// 1/gbltarget, and the allocations reaching the coalesce layer at
	// most their product.
	for _, row := range res.Rows {
		cpu, gbl := 1/float64(row.Target), 1/float64(row.GblTarget)
		if row.AllocMiss > cpu {
			t.Errorf("size %d per-CPU miss %.4f above 1/target %.4f", row.Size, row.AllocMiss, cpu)
		}
		if row.GlobalGetMiss > gbl {
			t.Errorf("size %d global miss %.4f above 1/gbltarget %.4f", row.Size, row.GlobalGetMiss, gbl)
		}
		if row.CombinedAllocMiss > cpu*gbl {
			t.Errorf("size %d combined miss %.5f above their product %.5f", row.Size, row.CombinedAllocMiss, cpu*gbl)
		}
	}
}

func TestCyclicWorkload(t *testing.T) {
	res, err := RunCyclic(2, 192)
	if err != nil {
		t.Fatal(err)
	}
	res.Table().Fprint(os.Stderr)
	totalAllocs, totalFailures := 0, 0
	for _, row := range res.Rows {
		totalAllocs += row.Allocs
		totalFailures += row.Failures
	}
	// The cycle must complete with (nearly) no failures: coalescing
	// returns each phase's memory to the next.
	if totalFailures > totalAllocs/100 {
		t.Fatalf("%d failures of %d allocs: coalescing not keeping up", totalFailures, totalAllocs)
	}
	if res.PagesReleased == 0 {
		t.Fatal("no pages were ever released to the system")
	}
}

func TestDLMScaling(t *testing.T) {
	rows, err := RunDLMScaling([]int{1, 4}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	DLMScaleTable(rows).Fprint(os.Stderr)
	// Four nodes must deliver well over twice one node's lock throughput
	// (messaging overhead keeps it under 4x).
	if rows[1].LocksPerSec < 2*rows[0].LocksPerSec {
		t.Errorf("DLM did not scale: 1 node %.0f, 4 nodes %.0f locks/sec",
			rows[0].LocksPerSec, rows[1].LocksPerSec)
	}
}

func TestProjectionWidensAdvantage(t *testing.T) {
	rows, err := RunProjection(0.01)
	if err != nil {
		t.Fatal(err)
	}
	ProjectionTable(rows).Fprint(os.Stderr)
	// The per-CPU allocator's advantage over the lock-based one must
	// grow monotonically as memory gets relatively slower, and its own
	// scaling must stay near-linear in every era.
	for i := 1; i < len(rows); i++ {
		if rows[i].Advantage <= rows[i-1].Advantage {
			t.Errorf("advantage did not widen: %s %.0fx -> %s %.0fx",
				rows[i-1].Era, rows[i-1].Advantage, rows[i].Era, rows[i].Advantage)
		}
	}
	for _, r := range rows {
		if r.CookieSpeedup8 < 7 {
			t.Errorf("%s: cookie 8-CPU speedup only %.2fx", r.Era, r.CookieSpeedup8)
		}
	}
}

func TestInsnCounts(t *testing.T) {
	rows, err := RunInsnCounts()
	if err != nil {
		t.Fatal(err)
	}
	InsnTable(rows).Fprint(os.Stderr)
	if rows[0].AllocInsns != 13 || rows[0].FreeInsns != 13 {
		t.Errorf("cookie path: %d/%d insns, want 13/13", rows[0].AllocInsns, rows[0].FreeInsns)
	}
	if rows[1].AllocInsns != 35 || rows[1].FreeInsns != 32 {
		t.Errorf("standard path: %d/%d insns, want 35/32", rows[1].AllocInsns, rows[1].FreeInsns)
	}
}

func TestAnalysisShapes(t *testing.T) {
	old, new_, err := RunAnalysis(64)
	if err != nil {
		t.Fatal(err)
	}
	AnalysisTable(old, new_).Fprint(os.Stderr)
	// Old allocator: measured average well above predicted (cache misses
	// dominate), and the worst few accesses carry a large share.
	if old[0].AvgUs < 2*old[0].PredictedUs {
		t.Errorf("old allocb avg %.2fus not >> predicted %.2fus", old[0].AvgUs, old[0].PredictedUs)
	}
	if old[0].WorstSharePct < 25 {
		t.Errorf("worst-access share only %.1f%%", old[0].WorstSharePct)
	}
	// New allocator: much closer to predicted.
	if new_[0].AvgUs > old[0].AvgUs {
		t.Errorf("new allocb (%.2fus) slower than old (%.2fus)", new_[0].AvgUs, old[0].AvgUs)
	}
}

func TestAblations(t *testing.T) {
	tr, err := AblateTarget([]int{1, 2, 5, 10, 20}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	TargetTable(tr).Fprint(os.Stderr)
	// Larger target => fewer global ops.
	if tr[0].GlobalAccess <= tr[len(tr)-1].GlobalAccess {
		t.Error("target sweep: global ops did not fall with target")
	}

	sr, err := AblateSplitFreelist(0.01)
	if err != nil {
		t.Fatal(err)
	}
	SplitTable(sr).Fprint(os.Stderr)
	// Single-block exchange must multiply the global-layer traffic *per
	// operation* ~target-fold (aggregate counts differ because the slower
	// variant completes fewer operations in the same virtual time).
	splitRate := float64(sr[0].GlobalOps) / sr[0].PairsPerSec
	singleRate := float64(sr[1].GlobalOps) / sr[1].PairsPerSec
	if singleRate < 5*splitRate {
		t.Errorf("split freelist ablation ineffective: %.4f vs %.4f global ops/pair",
			splitRate, singleRate)
	}
	if sr[0].PairsPerSec <= sr[1].PairsPerSec {
		t.Errorf("split list (%.0f pairs/s) not faster than single (%.0f pairs/s)",
			sr[0].PairsPerSec, sr[1].PairsPerSec)
	}

	rr, err := AblateRadix(20)
	if err != nil {
		t.Fatal(err)
	}
	RadixTable(rr).Fprint(os.Stderr)
	// Fewest-free-first consolidates allocations into partial pages, so
	// it must carve fewer fresh pages than FIFO on the same op sequence.
	if rr[0].PagesCarved >= rr[1].PagesCarved {
		t.Errorf("radix carved %d pages, FIFO %d: no consolidation win",
			rr[0].PagesCarved, rr[1].PagesCarved)
	}

	tr2, err := AblateTLB(0.01)
	if err != nil {
		t.Fatal(err)
	}
	TLBTable(tr2).Fprint(os.Stderr)
	// The TLB model must not perturb the calibrated steady-state loop
	// (the footnote calls it a secondary effect) but must cost something
	// on the page-walking worst case.
	byKey := map[string]float64{}
	for _, r := range tr2 {
		byKey[r.Allocator+"/"+r.TLB] = r.PairsPerSec
	}
	if byKey["cookie best-case/off"] != byKey["cookie best-case/64 entries"] {
		t.Error("TLB model perturbed the cookie best-case loop")
	}
	if byKey["newkma worst-case 256B/64 entries"] >= byKey["newkma worst-case 256B/off"] {
		t.Error("TLB model cost nothing on the worst-case page walk")
	}

	lr, err := AblateLazyBuddy(0.01)
	if err != nil {
		t.Fatal(err)
	}
	LazyTable(lr).Fprint(os.Stderr)
	// Lazy buddy must not scale to 8 CPUs the way cookie does.
	var ck8, lb8, ck1, lb1 float64
	for _, r := range lr {
		switch {
		case r.Allocator == "cookie" && r.CPUs == 8:
			ck8 = r.PairsPerSec
		case r.Allocator == "lazybuddy" && r.CPUs == 8:
			lb8 = r.PairsPerSec
		case r.Allocator == "cookie" && r.CPUs == 1:
			ck1 = r.PairsPerSec
		case r.Allocator == "lazybuddy" && r.CPUs == 1:
			lb1 = r.PairsPerSec
		}
	}
	if ck8/ck1 < 4 {
		t.Errorf("cookie 8-CPU speedup %.1f", ck8/ck1)
	}
	if lb8/lb1 > 2 {
		t.Errorf("lazybuddy scaled unexpectedly: %.1f", lb8/lb1)
	}
}
