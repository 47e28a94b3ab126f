package torture

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"kmem/internal/workload"
)

// TestSmallMatrix drives the PR-smoke matrix with fixed seeds: every
// config must run its full op budget with a clean oracle, under both the
// conservative schedule and a jittered one.
func TestSmallMatrix(t *testing.T) {
	for i, cfg := range MatrixSmall() {
		cfg.Ops = 1200
		cfg.Seed = uint64(1000 + i)
		for _, jitter := range []uint64{0, uint64(7700 + i)} {
			cfg.JitterSeed = jitter
			r := New(cfg)
			t.Run(r.Config().Name()+jitterTag(jitter), func(t *testing.T) {
				rep, err := r.Run()
				if err != nil {
					t.Fatalf("seed %d jitter %d: %v", cfg.Seed, jitter, err)
				}
				if rep.Allocs == 0 || rep.Frees == 0 {
					t.Fatalf("degenerate run: %+v", rep)
				}
			})
		}
	}
}

func jitterTag(seed uint64) string {
	if seed == 0 {
		return ""
	}
	return "-jitter"
}

// TestHardenedObjCache: the small matrix's Harden×ObjCache config runs
// its cache hardened — the ctor re-runs on every magazine Get, so ctors
// outnumber carves — and passes the end audit.
func TestHardenedObjCache(t *testing.T) {
	var ran bool
	for i, cfg := range MatrixSmall() {
		if !cfg.Harden || !cfg.ObjCache {
			continue
		}
		cfg.Ops = 1200
		cfg.Seed = uint64(1000 + i)
		rep, err := New(cfg).Run()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if st := rep.Cache; st.CtorRuns <= st.Carves || st.CtorSkips != 0 {
			t.Errorf("%s: cache ctors %d, carves %d, skips %d; a hardened cache re-runs the ctor on every warm Get",
				cfg.Name(), st.CtorRuns, st.Carves, st.CtorSkips)
		}
		ran = true
	}
	if !ran {
		t.Fatal("MatrixSmall has no Harden×ObjCache config")
	}
}

// TestGoldenDeterminism is the golden determinism test: the same seeds
// produce the identical interleaving (schedule hash) and identical op
// accounting across two runs, at every CPU count, jittered or not.
func TestGoldenDeterminism(t *testing.T) {
	for _, cpus := range []int{1, 2, 4, 8} {
		for _, jitter := range []uint64{0, 99} {
			cfg := Config{CPUs: cpus, Nodes: max(1, cpus/2), Ops: 800, Seed: 5, JitterSeed: jitter}
			repA, errA := New(cfg).Run()
			repB, errB := New(cfg).Run()
			if errA != nil || errB != nil {
				t.Fatalf("cpus=%d jitter=%d: %v / %v", cpus, jitter, errA, errB)
			}
			if repA != repB {
				t.Errorf("cpus=%d jitter=%d: reports diverged:\n  %+v\n  %+v", cpus, jitter, repA, repB)
			}
		}
	}
}

// TestJitterSeedsExplore proves distinct jitter seeds explore distinct
// interleavings of the same op sequence.
func TestJitterSeedsExplore(t *testing.T) {
	cfg := Config{CPUs: 4, Nodes: 2, Ops: 800, Seed: 5}
	hashes := map[uint64]bool{}
	for _, jitter := range []uint64{0, 1, 2, 3} {
		cfg.JitterSeed = jitter
		rep, err := New(cfg).Run()
		if err != nil {
			t.Fatalf("jitter %d: %v", jitter, err)
		}
		hashes[rep.SchedHash] = true
	}
	if len(hashes) < 3 {
		t.Errorf("4 jitter seeds explored only %d distinct schedules", len(hashes))
	}
}

// TestShrinkMechanics checks ddmin against a synthetic predicate: a
// repro "fails" while it keeps at least two large allocs, so the minimum
// is exactly two ops.
func TestShrinkMechanics(t *testing.T) {
	r := ReproOf(New(Config{CPUs: 4, Nodes: 2, Ops: 600, Seed: 11}))
	fails := func(r Repro) bool {
		n := 0
		for _, op := range r.Ops {
			if (op.Kind == OpAlloc || op.Kind == OpAllocWait) && op.Size >= 5000 {
				n++
			}
		}
		return n >= 2
	}
	if !fails(r) {
		t.Fatalf("seed workload lacks two large allocs; pick another seed")
	}
	shrunk := Shrink(r, fails)
	if !fails(shrunk) {
		t.Fatal("shrunk repro no longer fails the predicate")
	}
	if len(shrunk.Ops) != 2 {
		t.Errorf("ddmin left %d ops; minimum for the predicate is 2", len(shrunk.Ops))
	}
}

// TestShrinkHealthyIsIdentity pins that Shrink never touches a passing
// repro.
func TestShrinkHealthyIsIdentity(t *testing.T) {
	r := ReproOf(New(Config{CPUs: 2, Nodes: 1, Ops: 200, Seed: 3}))
	shrunk := ShrinkFailure(r)
	if len(shrunk.Ops) != len(r.Ops) {
		t.Errorf("Shrink modified a healthy repro: %d -> %d ops", len(r.Ops), len(shrunk.Ops))
	}
}

// TestReproRoundTrip pins the JSON artifact format: save, load, replay —
// identical ops, identical schedule hash.
func TestReproRoundTrip(t *testing.T) {
	r := ReproOf(New(Config{CPUs: 4, Nodes: 2, Ops: 400, Seed: 21, JitterSeed: 9}))
	path := t.TempDir() + "/case.torture.json"
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Ops) != len(r.Ops) || back.Config != r.Config {
		t.Fatalf("round trip changed the repro: %+v vs %+v", back.Config, r.Config)
	}
	repA, errA := r.Runner().Run()
	repB, errB := back.Runner().Run()
	if errA != nil || errB != nil || repA.SchedHash != repB.SchedHash {
		t.Fatalf("replay diverged: %+v (%v) vs %+v (%v)", repA, errA, repB, errB)
	}
}

// TestCorpusEncodings checks both fuzz-corpus translations: the
// FuzzAllocatorOps bytes respect that harness's framing, and the trace
// bytes parse back into a valid workload.Trace.
func TestCorpusEncodings(t *testing.T) {
	r := ReproOf(New(Config{CPUs: 4, Nodes: 2, Ops: 500, Seed: 13}))
	fb := r.FuzzAllocatorOpsBytes()
	if len(fb) == 0 || len(fb)%2 != 0 || len(fb) > 2048 {
		t.Fatalf("fuzz bytes: bad framing, len %d", len(fb))
	}
	for i := 0; i < len(fb); i += 2 {
		if fb[i]&0x7f > 1 {
			t.Fatalf("fuzz byte %d encodes CPU %d; harness uses 2 CPUs", i, fb[i]&0x7f)
		}
	}
	tb, err := r.TraceBytes()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ReadTrace(bytes.NewReader(tb))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(4); err != nil {
		t.Fatalf("trace from repro is not well-formed: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("trace from repro is empty")
	}
}

// TestMatrixShapes pins the matrix dimensions: the small matrix touches
// every dimension and runs no config twice, the full one is a small
// covering array plus the directed stacks.
func TestMatrixShapes(t *testing.T) {
	small := MatrixSmall()
	var pressure, faults, lazy, objCache, hardened, multiNode bool
	var rseq, lockFree, storm, serve bool
	plants := map[string]bool{}
	names := map[string]bool{}
	for _, c := range small {
		if names[c.Name()] {
			t.Errorf("small matrix runs %s twice", c.Name())
		}
		names[c.Name()] = true
		pressure = pressure || c.Pressure
		faults = faults || c.Faults
		lazy = lazy || c.Lazy
		objCache = objCache || c.ObjCache
		hardened = hardened || c.Harden
		multiNode = multiNode || c.Nodes > 1
		rseq = rseq || c.Rseq
		lockFree = lockFree || c.LockFree
		storm = storm || c.RestartStorm
		serve = serve || c.Serve
		if c.Plant != "" {
			plants[c.Plant] = true
		}
	}
	if !pressure || !faults || !lazy || !objCache || !hardened || !multiNode {
		t.Errorf("small matrix misses a dimension: pressure=%v faults=%v lazy=%v objCache=%v harden=%v multiNode=%v",
			pressure, faults, lazy, objCache, hardened, multiNode)
	}
	if !rseq || !lockFree || !storm || !serve {
		t.Errorf("small matrix misses an optimistic or serve dimension: rseq=%v lockFree=%v storm=%v serve=%v",
			rseq, lockFree, storm, serve)
	}
	if !plants["overrun"] || !plants["doublefree"] || !plants["latewrite"] {
		t.Errorf("small matrix misses a planted corruption kind: have %v", plants)
	}
	full := MatrixFull()
	var directed int
	plants = map[string]bool{}
	for _, c := range full {
		if c.RestartStorm || c.Plant != "" {
			directed++
		}
		if c.Plant != "" {
			plants[c.Plant] = true
		}
	}
	if directed != 6 || len(plants) != 3 {
		t.Errorf("full matrix carries %d storm/plant configs and plants %v, want both storms and all four plant configs", directed, plants)
	}
	// The cross product of the eight factors has 512 configs.
	if n := len(full) - directed; n > 24 {
		t.Errorf("full matrix has %d generated configs, want a covering array of at most 24", n)
	}
}

// TestMatrixFullCoversAllPairs: for every two of the eight factors and
// every combination of their values, some config of the full
// matrix runs that combination. Read off the Config fields, not the
// generator's rows, so a generator bug cannot vouch for itself.
func TestMatrixFullCoversAllPairs(t *testing.T) {
	onOff := func(get func(Config) bool) func(Config) string {
		return func(c Config) string { return fmt.Sprint(get(c)) }
	}
	flag := []string{"false", "true"}
	factors := []struct {
		name   string
		levels []string
		of     func(Config) string
	}{
		{"topology", []string{"c1n1", "c2n1", "c4n2", "c8n4"}, func(c Config) string { return fmt.Sprintf("c%dn%d", c.CPUs, c.Nodes) }},
		{"pressure", flag, onOff(func(c Config) bool { return c.Pressure })},
		{"faults", flag, onOff(func(c Config) bool { return c.Faults })},
		{"lazy", flag, onOff(func(c Config) bool { return c.Lazy })},
		{"objcache", flag, onOff(func(c Config) bool { return c.ObjCache })},
		{"harden", flag, onOff(func(c Config) bool { return c.Harden })},
		{"optimistic", flag, func(c Config) string {
			if c.Rseq != c.LockFree {
				return "mixed"
			}
			return fmt.Sprint(c.Rseq)
		}},
		{"serve", flag, onOff(func(c Config) bool { return c.Serve })},
	}
	full := MatrixFull()
	pairs := 0
	for i, f := range factors {
		for _, g := range factors[i+1:] {
			for _, a := range f.levels {
				for _, b := range g.levels {
					pairs++
					found := false
					for _, c := range full {
						if f.of(c) == a && g.of(c) == b {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("no config runs %s=%s with %s=%s", f.name, a, g.name, b)
					}
				}
			}
		}
	}
	if pairs != 140 {
		t.Errorf("checked %d pairs, the eight factors have 140", pairs)
	}
}

// TestCommittedReprosReplayClean replays every committed repro artifact
// under testdata. On a healthy (untagged) build each must pass: the
// artifacts capture planted-bug failures, and the planted bugs are
// compiled out here. This pins the artifact format itself — a repro
// that no longer loads or executes is a dead artifact.
func TestCommittedReprosReplayClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.torture.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed repro artifacts under testdata")
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			r, err := LoadRepro(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Runner().Run(); err != nil {
				t.Fatalf("committed repro fails on a healthy build: %v", err)
			}
		})
	}
}
