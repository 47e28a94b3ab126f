package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kmem/internal/bench"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,25")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 25 {
		t.Fatalf("parseInts = %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad int accepted")
	}
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("16,4096, 16384")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 16384 {
		t.Fatalf("parseSizes = %v", got)
	}
	if _, err := parseSizes("-1"); err == nil {
		t.Fatal("negative size accepted")
	}
}

// captureStdout runs f with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) ([]byte, error) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	runErr := f()
	os.Stdout = saved
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return data, runErr
}

// TestSubcommandsRunSmall runs a tiny parameterization of every sweep
// (every subcommand but "all") end to end, twice: rendered, which must
// print something, and with -json, which must print one document
// carrying the subcommand's envelope.
func TestSubcommandsRunSmall(t *testing.T) {
	for _, sc := range []struct {
		schema string
		cmd    func([]string) error
		args   []string
	}{
		{"bestcase", cmdBestCase, []string{"-cpus", "1,2", "-seconds", "0.002"}},
		{"worstcase", cmdWorstCase, []string{"-sizes", "64,4096", "-pages", "64"}},
		{"dlm", cmdDLM, []string{"-ops", "300"}},
		{"insns", cmdInsns, nil},
		{"analysis", cmdAnalysis, []string{"-ops", "8"}},
		{"ablate", cmdAblate, []string{"-param", "split"}},
		{"adaptive", cmdAdaptive, []string{"-bursts", "20", "-burst", "50"}},
		{"cyclic", cmdCyclic, []string{"-cycles", "1"}},
		{"projection", cmdProjection, []string{"-seconds", "0.002"}},
		{"topology", cmdTopology, []string{"-cpus", "4", "-nodes", "1,2", "-seconds", "0.002"}},
		{"topology", cmdTopology, []string{"-cpus", "4", "-nodes", "1,4", "-seconds", "0.002", "-pairing", "cross"}},
		{"pressure", cmdPressure, []string{"-cpus", "2", "-nodes", "1,2", "-pages", "32", "-rounds", "50"}},
		{"frag", cmdFrag, []string{"-cycles", "1", "-pages", "2048"}},
		{"objcache", cmdObjCache, []string{"-sizes", "64", "-pairs", "100"}},
		{"harden", cmdHarden, []string{"-sizes", "64", "-pairs", "100"}},
		{"scaling", cmdScaling, []string{"-cpus", "2,4", "-nodes", "1,2", "-seconds", "0.002"}},
		{"scaling-lockfree", cmdScaling, []string{"-lockfree", "-cpus", "2", "-nodes", "1", "-seconds", "0.002"}},
		{"serve", cmdServe, []string{"-cpus", "2", "-sessions", "32", "-ops", "800", "-nodes", "1"}},
	} {
		what := sc.schema + " " + strings.Join(sc.args, " ")
		text, err := captureStdout(t, func() error { return sc.cmd(sc.args) })
		if err != nil {
			t.Errorf("%s: %v", what, err)
			continue
		}
		if len(text) == 0 {
			t.Errorf("%s: rendered nothing", what)
		}
		doc, err := captureStdout(t, func() error { return sc.cmd(append(sc.args, "-json")) })
		if err != nil {
			t.Errorf("%s -json: %v", what, err)
			continue
		}
		var env struct {
			Schema        string
			SchemaVersion int
		}
		if err := json.Unmarshal(doc, &env); err != nil {
			t.Errorf("%s -json: output does not parse: %v", what, err)
			continue
		}
		if want := "kmembench/" + sc.schema; env.Schema != want || env.SchemaVersion != bench.EmitSchemaVersion {
			t.Errorf("%s -json: envelope %q v%d, want %q v%d", what, env.Schema, env.SchemaVersion, want, bench.EmitSchemaVersion)
		}
	}

	for _, bad := range []struct {
		what string
		cmd  func([]string) error
		args []string
	}{
		{"unknown ablation", cmdAblate, []string{"-param", "nope"}},
		{"odd CPU count (topology)", cmdTopology, []string{"-cpus", "3"}},
		{"odd CPU count (scaling)", cmdScaling, []string{"-cpus", "5"}},
		{"unknown pairing", cmdTopology, []string{"-pairing", "diag"}},
	} {
		if _, err := captureStdout(t, func() error { return bad.cmd(bad.args) }); err == nil {
			t.Errorf("%s accepted", bad.what)
		}
	}
}
