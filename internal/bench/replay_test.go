package bench

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kmem/internal/workload"
)

// runReplay runs `kmembench replay args...` and returns what it prints.
func runReplay(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	rep, err := Lookup("replay").Run(fs, args)
	if err != nil {
		t.Fatalf("replay %s: %v", strings.Join(args, " "), err)
	}
	var out strings.Builder
	if err := rep.Write(&out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestRunSynthesizeAndReplay(t *testing.T) {
	out := runReplay(t, "-alloc", "cookie", "-cpus", "2", "-ops", "2000", "-workingset", "50", "-dist", "fixed:64", "-pages", "2048")
	if !strings.HasPrefix(out, "synthesized 2000 events (fixed:64, working set 50, 2 CPUs, seed 1)\n") || !strings.Contains(out, "\ncookie ") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunRecordThenReplayFile(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.kmtr")
	out := runReplay(t, "-record", trace, "-cpus", "2", "-ops", "1000", "-workingset", "40", "-dist", "choice:32,64", "-seed", "7", "-pages", "2048")
	if !strings.HasSuffix(out, "trace written to "+trace+"\n") {
		t.Fatalf("record printed:\n%s", out)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	tr, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(2); err != nil {
		t.Fatal(err)
	}
	out = runReplay(t, "-alloc", "newkma", "-replay", trace, "-dump", "-nodes", "2", "-pages", "2048")
	if !strings.Contains(out, "\nnewkma ") || !strings.Contains(out, "kmem allocator:") {
		t.Fatalf("replay with -dump printed:\n%s", out)
	}
}

func TestReplayAllAllocators(t *testing.T) {
	tr := workload.Synthesize(3, 4, 20000, 150, workload.Uniform{Lo: 16, Hi: 2048})
	var results []*ReplayResult
	for _, name := range append(slices.Clone(AllocatorNames), "lazybuddy") {
		res, err := Replay(tr, name, MachineFor(4, 64<<20, 8192))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failures != 0 {
			t.Errorf("%s: %d failures with ample memory", name, res.Failures)
		}
		results = append(results, res)
	}
	// The per-CPU allocator must beat every lock-based baseline on the
	// identical operation sequence.
	cookie := results[0]
	for _, r := range results[2:] { // skip newkma (same allocator, std iface)
		if cookie.OpsPerSec <= r.OpsPerSec {
			t.Errorf("cookie (%.0f ops/s) did not beat %s (%.0f ops/s)",
				cookie.OpsPerSec, r.Allocator, r.OpsPerSec)
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	tr := workload.Synthesize(9, 2, 5000, 80, workload.Fixed(256))
	a, err := Replay(tr, "cookie", MachineFor(2, 64<<20, 4096))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(tr, "cookie", MachineFor(2, 64<<20, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if a.VirtualSec != b.VirtualSec || a.OpsPerSec != b.OpsPerSec {
		t.Fatalf("replay not deterministic: %+v vs %+v", a, b)
	}
}

func TestReplayCrossCPUHandles(t *testing.T) {
	// Alloc on CPU 0, free on CPU 1 with handle reuse: exercises the
	// stall-and-retry paths.
	rec := workload.NewRecorder()
	for i := 0; i < 200; i++ {
		h := rec.Alloc(0, 128)
		rec.Free(1, h) // recorder reuses the handle immediately
	}
	tr := rec.Trace()
	if err := tr.Validate(2); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(tr, "newkma", MachineFor(2, 64<<20, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("%d failures", res.Failures)
	}
}

func TestReplayRejectsBadTrace(t *testing.T) {
	tr := &workload.Trace{Events: []workload.Event{{Kind: workload.EvFree, Handle: 3}}}
	if _, err := Replay(tr, "cookie", MachineFor(1, 64<<20, 128)); err == nil {
		t.Fatal("invalid trace accepted")
	}
}
