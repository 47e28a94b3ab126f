package main

import (
	"testing"

	"kmem/internal/torture"
)

func TestBugByName(t *testing.T) {
	for _, name := range []string{"shardflush", "rightmerge", "lfstackaba", "stalepure", "stalehead", "tailoverlap", "runstraddle"} {
		if _, ok := bugByName(name); !ok {
			t.Fatalf("%s not recognized", name)
		}
	}
	if _, ok := bugByName("nosuchbug"); ok {
		t.Fatal("unknown bug accepted")
	}
}

func TestJitterAt(t *testing.T) {
	// Base 0 keeps the conservative schedule in slot 0 only; every later
	// slot must actually perturb.
	if got := jitterAt(0, 0); got != 0 {
		t.Fatalf("jitterAt(0,0) = %d, want 0", got)
	}
	if got := jitterAt(0, 1); got == 0 {
		t.Fatal("jitterAt(0,1) = 0: slot 1 did not perturb")
	}
	if got := jitterAt(41, 1); got != 42 {
		t.Fatalf("jitterAt(41,1) = %d, want 42", got)
	}
}

func TestArtifactName(t *testing.T) {
	cfg := torture.Config{CPUs: 4, Nodes: 2, Seed: 7, JitterSeed: 3, Pressure: true}
	got := artifactName(cfg)
	want := "c4n2-pressure-seed7-j3.torture.json"
	if got != want {
		t.Fatalf("artifactName = %q, want %q", got, want)
	}
}

func TestDriverRunsCleanConfig(t *testing.T) {
	d := driver{outDir: t.TempDir()}
	d.run(torture.Config{CPUs: 2, Nodes: 1, Ops: 300, Seed: 11, JitterSeed: 5})
	if d.runs != 1 || d.failures != 0 {
		t.Fatalf("runs=%d failures=%d, want 1/0", d.runs, d.failures)
	}
}
