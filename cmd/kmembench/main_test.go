package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kmem/internal/bench"
)

// runJSON runs `kmembench <name> args... -json` and decodes the document.
func runJSON(t *testing.T, name string, args ...string) (map[string]any, error) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, bench.Lookup(name), flag.ContinueOnError, slices.Concat(args, []string{"-json"})); err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("%s %s -json: output does not parse: %v", name, strings.Join(args, " "), err)
	}
	return doc, nil
}

// TestParseInts: a count-list flag takes comma-separated integers,
// spaces allowed, and refuses anything else.
func TestParseInts(t *testing.T) {
	doc, err := runJSON(t, "bestcase", "-cpus", "1, 2,3", "-seconds", "0.001", "-allocators", "cookie")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := doc["CPUCounts"], []any{1.0, 2.0, 3.0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("-cpus '1, 2,3' ran CPU counts %v", got)
	}
	if _, err := runJSON(t, "bestcase", "-cpus", "1,x"); err == nil || !strings.Contains(err.Error(), "-cpus") {
		t.Fatalf("bad int: %v", err)
	}
}

// TestParseSizes: likewise for a size list, which is unsigned.
func TestParseSizes(t *testing.T) {
	doc, err := runJSON(t, "objcache", "-sizes", "64, 4096,16384", "-pairs", "10")
	if err != nil {
		t.Fatal(err)
	}
	pts, _ := doc["Points"].([]any)
	if len(pts) != 3 || pts[2].(map[string]any)["BufSize"] != 16384.0 {
		t.Fatalf("-sizes '64, 4096,16384' ran points %v", pts)
	}
	if _, err := runJSON(t, "objcache", "-sizes", "-1"); err == nil || !strings.Contains(err.Error(), "-sizes") {
		t.Fatalf("negative size: %v", err)
	}
}

// TestSubcommandsRunSmall runs every registry entry's smoke
// parameterizations (every subcommand but "all") end to end, twice:
// rendered, which must print something, and with -json, which must
// print one document carrying the subcommand's envelope.
func TestSubcommandsRunSmall(t *testing.T) {
	for _, s := range bench.Sweeps {
		for _, args := range s.Smoke {
			what := s.Name + " " + strings.Join(args, " ")
			var text bytes.Buffer
			if err := run(&text, s, flag.ContinueOnError, args); err != nil {
				t.Errorf("%s: %v", what, err)
				continue
			}
			if text.Len() == 0 {
				t.Errorf("%s: rendered nothing", what)
			}
			doc, err := runJSON(t, s.Name, args...)
			if err != nil {
				t.Errorf("%s -json: %v", what, err)
				continue
			}
			want := "kmembench/" + s.Name
			if doc["Schema"] != want || doc["SchemaVersion"] != float64(bench.EmitSchemaVersion) {
				t.Errorf("%s -json: envelope %v v%v, want %q v%d", what, doc["Schema"], doc["SchemaVersion"], want, bench.EmitSchemaVersion)
			}
		}
	}

	for _, bad := range []struct {
		what, name string
		args       []string
	}{
		{"unknown ablation", "ablate", []string{"-param", "nope"}},
		{"odd CPU count (topology)", "topology", []string{"-cpus", "3"}},
		{"odd CPU count (scaling)", "scaling", []string{"-cpus", "5"}},
		{"unknown pairing", "topology", []string{"-pairing", "diag"}},
	} {
		if err := run(&bytes.Buffer{}, bench.Lookup(bad.name), flag.ContinueOnError, bad.args); err == nil {
			t.Errorf("%s accepted", bad.what)
		}
	}
}

// TestDriverHasRoomForEverySweep: what main adds to the registry — the
// built-in commands, the usage column and the 70-column `all` heading —
// has room for every entry. (`all` itself takes minutes and runs in the
// nightly.)
func TestDriverHasRoomForEverySweep(t *testing.T) {
	if bench.Lookup("all") != nil || bench.Lookup("help") != nil {
		t.Fatal("a sweep shadows a built-in command")
	}
	for _, s := range bench.Sweeps {
		if len(s.Name) > 10 || len(s.Title) > 64 {
			t.Errorf("%s: name or title too long for the usage column / `all` heading", s.Name)
		}
	}
}
