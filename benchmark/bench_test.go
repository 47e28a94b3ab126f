package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testRun(t *testing.T, workload string, seed uint64, trace int) (*result, *report) {
	t.Helper()
	res, rep, err := run(options{workload: workload, seed: seed, seconds: 1, trace: trace,
		small: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d trace %d: %v", workload, seed, trace, err)
	}
	for _, p := range rep.Problems {
		t.Errorf("%s seed %d trace %d: %s", workload, seed, trace, p)
	}
	return res, rep
}

var simWorkloads = []string{"churn", "prodcons", "sweep", "serve"}

// virtualOf strips the host-time metrics, which legitimately differ
// between two runs.
func virtualOf(res *result) map[string]float64 {
	out := map[string]float64{}
	for name, m := range res.Metrics {
		if strings.HasPrefix(name, "v_") || name == "resident_peak_mb" {
			out[name] = m.Value
		}
	}
	return out
}

func TestSimWorkloadsAreDeterministic(t *testing.T) {
	for _, wl := range simWorkloads {
		t.Run(wl, func(t *testing.T) {
			a, ra := testRun(t, wl, 7, 0)
			b, rb := testRun(t, wl, 7, 0)
			if ra.SchedHash != rb.SchedHash {
				t.Errorf("same seed, schedule hashes %s and %s", ra.SchedHash, rb.SchedHash)
			}
			if !reflect.DeepEqual(virtualOf(a), virtualOf(b)) || a.Attempted != b.Attempted || a.Failed != b.Failed {
				t.Errorf("same seed, different virtual results:\n%v\n%v", virtualOf(a), virtualOf(b))
			}
			_, rc := testRun(t, wl, 8, 0)
			if rc.SchedHash == ra.SchedHash {
				t.Errorf("seeds 7 and 8 produced the same schedule hash %s: the seed does not reach the workload", ra.SchedHash)
			}
			if a.Failed != 0 {
				t.Errorf("%d of %d ops failed", a.Failed, a.Attempted)
			}
		})
	}
}

func TestTracedRunLeavesVirtualResultsUntouched(t *testing.T) {
	for _, wl := range simWorkloads {
		t.Run(wl, func(t *testing.T) {
			res, rep := testRun(t, wl, 7, 1)
			if got := res.Metrics["trace.virtual_identical"].Value; got != 1 {
				t.Errorf("trace.virtual_identical = %v, want 1", got)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reported %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			// The traced run's hash is the untraced run's hash.
			_, untraced := testRun(t, wl, 7, 0)
			if rep.SchedHash != untraced.SchedHash {
				t.Errorf("traced schedule hash %s, untraced %s", rep.SchedHash, untraced.SchedHash)
			}
		})
	}
}

func TestDepthLedgerSumsToOne(t *testing.T) {
	for _, wl := range simWorkloads {
		t.Run(wl, func(t *testing.T) {
			res, _ := testRun(t, wl, 3, 1)
			var sum float64
			for _, d := range depthNames {
				sum += res.Metrics[d+".depth_share_cycles"].Value
			}
			if sum < 0.999999 || sum > 1.000001 {
				t.Errorf("depth shares sum to %.9f, want 1", sum)
			}
		})
	}
	// churn never leaves the per-CPU layer; sweep lives below it.
	churn, _ := testRun(t, "churn", 3, 1)
	if got := churn.Metrics["percpu.depth_share_cycles"].Value; got < 0.9 {
		t.Errorf("churn: per-CPU depth share %.3f, want >= 0.9", got)
	}
	sweep, _ := testRun(t, "sweep", 3, 1)
	if got := sweep.Metrics["page.depth_share_cycles"].Value + sweep.Metrics["vmblk.depth_share_cycles"].Value; got < 0.3 {
		t.Errorf("sweep: page+vmblk depth share %.3f, want >= 0.3", got)
	}
}

func TestNativeWorkloadsReportEveryMetric(t *testing.T) {
	for _, wl := range []string{"native_churn", "native_handoff"} {
		res, _ := testRun(t, wl, 5, 0)
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", wl, d.Name, m.Value)
			}
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d failed ops", wl, res.Failed)
		}
		traced, _ := testRun(t, wl, 5, 1)
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s: traced run reported %d metrics, want the %d per-layer ones", wl, len(traced.Metrics), len(perLayer))
		}
	}
}

// TestEvictCountsEachBufferOnce frees the held buffers of two sessions
// (2 and 3 of them) by eviction and checks the count against the free
// calls the driver stamped.
func TestEvictCountsEachBufferOnce(t *testing.T) {
	p := plan{workload: "serve", seed: 11, timedOps: 6000, small: true}
	wl := newServe().(*serveLoad)
	e, _, err := setUp(wl, &p, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	w := &e.w[0]
	// The warm-up day closed its sessions; open two of the next day's.
	last := uint32(len(wl.sess) - 1)
	holders := []uint32{last - 1, last}
	for _, id := range holders {
		if !wl.exec(w, &traceRec{kind: recOpen, sess: id, arg: 512}, &wl.sess[id]) {
			t.Fatalf("open of session %d failed", id)
		}
	}
	wl.holders[w.id] = holderQueue{}
	for i, id := range holders {
		for n := 0; n < 2+i; n++ {
			if !wl.exec(w, &traceRec{kind: recHold, sess: id, arg: 256}, &wl.sess[id]) {
				t.Fatalf("hold %d of session %d failed", n, id)
			}
		}
	}
	e.rec.timed = true
	frees0 := e.rec.calls[kFree].n
	wl.evicted = 0
	wl.evict(w)
	if frees := e.rec.calls[kFree].n - frees0; frees != 5 || wl.evicted != 5 {
		t.Errorf("evicting sessions holding 2 and 3 buffers: %d free calls, evicted = %d, want 5 and 5", frees, wl.evicted)
	}
	e.rec.timed = false
	wl.teardown(e)
	if w.bad != nil {
		t.Error(w.bad)
	}
	if err := e.s.audit(); err != nil {
		t.Error(err)
	}
}

// TestLaneDriver checks the serve lane driver's two promises: records of
// one session run in trace order wherever they run, and CPUs overlap in
// virtual time.
func TestLaneDriver(t *testing.T) {
	p := plan{workload: "serve", seed: 11, timedOps: 6000, small: true}
	wl := newServe().(*serveLoad)
	type exec struct {
		idx        int32
		cpu        int
		start, end int64
	}
	var log []exec
	wl.onExec = func(idx int32, cpu int, start, end int64) {
		log = append(log, exec{idx, cpu, start, end})
	}
	e, _, err := setUp(wl, &p, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	wl.begin(phaseTimed)
	e.runPhase(wl.step)
	if len(log) != len(wl.recs) {
		t.Fatalf("executed %d records, the trace has %d", len(log), len(wl.recs))
	}

	lastIdx := map[uint32]int32{}
	lastEnd := map[uint32]int64{}
	crossCPU := 0
	lastCPU := map[uint32]int{}
	for _, x := range log {
		sess := wl.recs[x.idx].sess
		if prev, seen := lastIdx[sess]; seen {
			if x.idx <= prev {
				t.Fatalf("session %d: record %d ran after record %d", sess, x.idx, prev)
			}
			if x.start < lastEnd[sess] {
				t.Fatalf("session %d: record %d started at cycle %d, before its predecessor ended at %d",
					sess, x.idx, x.start, lastEnd[sess])
			}
			if lastCPU[sess] != x.cpu {
				crossCPU++
			}
		}
		lastIdx[sess], lastEnd[sess], lastCPU[sess] = x.idx, x.end, x.cpu
	}
	if crossCPU == 0 {
		t.Error("no session ever moved between CPUs: the cross-CPU ordering was not exercised")
	}

	overlaps := 0
	for i := 1; i < len(log) && overlaps == 0; i++ {
		a, b := log[i-1], log[i]
		if a.cpu != b.cpu && a.start < b.end && b.start < a.end && a.end > a.start && b.end > b.start {
			overlaps++
		}
	}
	if overlaps == 0 {
		t.Error("no two records on different CPUs overlapped in virtual time: the lanes are serialized")
	}
	wl.teardown(e)
	if err := e.s.audit(); err != nil {
		t.Error(err)
	}
}

func TestFoldProfileAttribution(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.mallocgc", "kmem/internal/core.(*Allocator).Stats", "main.measure"}, "runtime"},
		{[]string{"container/heap.down", "container/heap.Fix", "kmem/internal/machine.(*Machine).runSim"}, "machine"},
		{[]string{"kmem/internal/blocklist.(*List).Push", "kmem/internal/core.(*Allocator).freeClass"}, "core"},
		{[]string{"time.Now", "main.(*env).opEnd", "main.(*ringLoad).step"}, "driver"},
		{[]string{"kmem/internal/objcache.(*Cache).Get", "kmem/internal/streams.(*Subsystem).Allocb"}, "objcache"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	}
	for _, c := range cases {
		module := "runtime"
		leaf := true
		for _, fn := range c.stack {
			mod, known := moduleOf(fn)
			if leaf && mod == "runtime" {
				break
			}
			leaf = false
			if known {
				module = mod
				break
			}
		}
		if module != c.want {
			t.Errorf("stack %v folded into %q, want %q", c.stack, module, c.want)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var got benchmarkContract
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := contract(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of step with the benchmark's tables; regenerate it with -describe")
	}
	for _, sp := range specs {
		if len(sp.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", sp.name, len(sp.why))
		}
	}
}
