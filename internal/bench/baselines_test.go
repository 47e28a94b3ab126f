package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// subDocument reports, one line each, every place where committed is not
// contained in fresh: a key fresh lacks, an array of another length, a
// scalar of another value. Keys only fresh has are allowed — BENCH_6/7
// predate the Emit envelope and fields added since.
func subDocument(path string, committed, fresh any) []string {
	switch c := committed.(type) {
	case map[string]any:
		f, ok := fresh.(map[string]any)
		if !ok {
			return []string{fmt.Sprintf("%s: committed an object, fresh %v", path, fresh)}
		}
		keys := make([]string, 0, len(c))
		for k := range c {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var diffs []string
		for _, k := range keys {
			cv := c[k]
			fv, ok := f[k]
			if !ok {
				diffs = append(diffs, fmt.Sprintf("%s.%s: committed %v, fresh run has no such key", path, k, cv))
				continue
			}
			diffs = append(diffs, subDocument(path+"."+k, cv, fv)...)
		}
		return diffs
	case []any:
		f, ok := fresh.([]any)
		if !ok || len(f) != len(c) {
			return []string{fmt.Sprintf("%s: committed %d elements, fresh %v", path, len(c), fresh)}
		}
		var diffs []string
		for i := range c {
			diffs = append(diffs, subDocument(fmt.Sprintf("%s[%d]", path, i), c[i], f[i])...)
		}
		return diffs
	}
	if committed != fresh {
		return []string{fmt.Sprintf("%s: committed %v, fresh %v", path, committed, fresh)}
	}
	return nil
}

// decodeDoc parses one JSON document keeping every number as its
// literal text, so 64-bit counters compare exactly.
func decodeDoc(t *testing.T, what string, data []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return doc
}

// runSweep runs one registry entry the way `kmembench <name> args...`
// does, failing the test on error.
func runSweep(t *testing.T, s *Sweep, args ...string) *Report {
	t.Helper()
	fs := flag.NewFlagSet(s.Name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	rep, err := s.Run(fs, args)
	if err != nil {
		t.Fatalf("kmembench %s %s: %v", s.Name, strings.Join(args, " "), err)
	}
	return rep
}

// reproduces holds a fresh sweep to the committed baseline: the file at
// the repository root must be a sub-document of what the sweep's
// command line prints under -json.
func reproduces(t *testing.T, s *Sweep, b Baseline) *Report {
	t.Helper()
	committed, err := os.ReadFile(filepath.Join("..", "..", b.File))
	if err != nil {
		t.Fatal(err)
	}
	args := slices.Concat(b.Args, []string{"-json"})
	rep := runSweep(t, s, args...)
	var fresh bytes.Buffer
	if err := rep.Write(&fresh); err != nil {
		t.Fatal(err)
	}
	diffs := subDocument(b.File, decodeDoc(t, b.File, committed), decodeDoc(t, "fresh "+s.Name, fresh.Bytes()))
	const show = 12
	for i, d := range diffs {
		if i == show {
			t.Errorf("%s: ... and %d more", b.File, len(diffs)-show)
			break
		}
		t.Error(d)
	}
	if len(diffs) > 0 {
		t.Errorf("%s no longer reproduces: a change that moves a virtual number regenerates the baseline it moved (`kmembench %s %s > %s`) in the same commit",
			b.File, s.Name, strings.Join(args, " "), b.File)
	}
	return rep
}

// TestBaselinesReproduce is the repository's regression gate for the
// historical sweeps. The simulator is deterministic, so each registry
// entry run with the arguments recorded beside its BENCH_*.json must
// equal the committed figure value for value; the claims the figures
// were committed to support are then asserted on the fresh results.
func TestBaselinesReproduce(t *testing.T) {
	fresh := map[string]any{} // by baseline file
	for _, s := range Sweeps {
		for _, b := range s.Baselines {
			fresh[b.File] = reproduces(t, s, b).Doc
		}
	}
	objcache, _ := fresh["BENCH_7.json"].(*ObjCacheResult)
	lf, _ := fresh["BENCH_9.json"].(*ScalingResult)
	if objcache == nil || lf == nil || fresh["BENCH_6.json"] == nil {
		t.Fatalf("the registry no longer names BENCH_6/7/9 (got %d baselines)", len(fresh))
	}

	// The optimistic paths never lose to the locked ones, halve (in fact
	// eliminate) lock wait where it is worst, and keep their three gains.
	for _, on := range lf.Points {
		if !on.LockFree {
			continue
		}
		off := lf.Point(on.CPUs, on.Nodes, on.Workload, false)
		if off == nil {
			t.Fatalf("lock-free sweep lacks the locked %d/%d %s point", on.CPUs, on.Nodes, on.Workload)
		}
		if on.PairsPerSec < off.PairsPerSec {
			t.Errorf("%d/%d %s: lockfree %.0f pairs/s < locked %.0f", on.CPUs, on.Nodes, on.Workload, on.PairsPerSec, off.PairsPerSec)
		}
	}
	pair := func(cpus, nodes int, workload string) (off, on *ScalingPoint) {
		off, on = lf.Point(cpus, nodes, workload, false), lf.Point(cpus, nodes, workload, true)
		if off == nil || on == nil {
			t.Fatalf("lock-free sweep lacks the %d/%d %s points", cpus, nodes, workload)
		}
		return off, on
	}
	if off, on := pair(8, 4, "prodcons"); 2*on.LockWaitCycles > off.LockWaitCycles {
		t.Errorf("8/4 prodcons: lock wait %d -> %d cycles, cut under 50%%", off.LockWaitCycles, on.LockWaitCycles)
	}
	for _, g := range []struct {
		cpus, nodes int
		workload    string
		floor       float64
	}{
		{8, 4, "allocfree", 1.20}, // rseq replacing the interrupt-mask pair on the warm path
		// The contended topology, four CPUs per node pool. 1.20 until
		// PR 23: a node-pure spill is one putList for both rows, but the
		// locked row also had lock wait to lose (237,670 -> 118,277
		// cycles; +24.8 % pairs/s against the lock-free row's +18.1 %),
		// so the gap between them reads 16.8 %, down from 23.4 %.
		{8, 2, "prodcons", 1.15},
		{8, 4, "prodcons", 1.08}, // shards already removed most contention; the rseq saving remains
	} {
		if off, on := pair(g.cpus, g.nodes, g.workload); on.PairsPerSec < g.floor*off.PairsPerSec {
			t.Errorf("%d/%d %s: optimistic paths gain %.1f%%, want >= %.0f%%",
				g.cpus, g.nodes, g.workload, 100*(on.PairsPerSec/off.PairsPerSec-1), 100*(g.floor-1))
		}
	}

	// The hardening sweep has no baseline of its own: its clean workload
	// must raise no detection, and its hardening-off STREAMS pair must
	// cost exactly what the objcache sweep (so BENCH_7) says.
	hard := runSweep(t, Lookup("harden")).Doc.(*HardenResult)
	for _, p := range hard.Points {
		if p.Detections != 0 {
			t.Errorf("harden size %d: %d detections on a clean workload", p.Size, p.Detections)
		}
	}
	if len(hard.StreamsPoints) != len(objcache.Points) {
		t.Fatalf("harden has %d STREAMS points, objcache %d", len(hard.StreamsPoints), len(objcache.Points))
	}
	for i, sp := range hard.StreamsPoints {
		if op := objcache.Points[i]; sp.BufSize != op.BufSize || sp.ObjCacheInsns != op.ObjCacheInsns {
			t.Errorf("hardening-off STREAMS pair, buf %d: %v insns/pair, objcache sweep buf %d: %v",
				sp.BufSize, sp.ObjCacheInsns, op.BufSize, op.ObjCacheInsns)
		}
	}
}

// TestSubDocument: the comparison names the path and both values, allows
// keys only the fresh side has, and does not confuse large counters.
func TestSubDocument(t *testing.T) {
	doc := func(s string) any { return decodeDoc(t, s, []byte(s)) }
	committed := doc(`{"A": 1, "P": [{"X": 18446744073709551615, "S": "h"}]}`)
	if d := subDocument("f", committed, doc(`{"A": 1, "P": [{"X": 18446744073709551615, "S": "h", "New": 2}], "Schema": "k"}`)); d != nil {
		t.Errorf("superset reported as different: %v", d)
	}
	for fresh, want := range map[string]string{
		`{"A": 1, "P": [{"X": 18446744073709551614, "S": "h"}]}`: "f.P[0].X: committed 18446744073709551615, fresh 18446744073709551614",
		`{"A": 1, "P": [{"X": 18446744073709551615}]}`:           "f.P[0].S: committed h, fresh run has no such key",
		`{"A": 1, "P": []}`: "f.P: committed 1 elements, fresh []",
	} {
		d := subDocument("f", committed, doc(fresh))
		if len(d) != 1 || d[0] != want {
			t.Errorf("fresh %s: got %q, want [%q]", fresh, d, want)
		}
	}
}

// TestEmitEnvelope: every -json document names its subcommand and the
// envelope generation; object results keep their fields at top level,
// row slices go under "Rows", and a result that already has a Schema
// field is an error rather than a silent overwrite.
func TestEmitEnvelope(t *testing.T) {
	emit := func(name string, v any) map[string]any {
		t.Helper()
		var buf bytes.Buffer
		if err := Emit(&buf, name, v); err != nil {
			t.Fatalf("Emit(%s): %v", name, err)
		}
		return decodeDoc(t, name, buf.Bytes()).(map[string]any)
	}
	version := json.Number(fmt.Sprint(EmitSchemaVersion))

	obj := emit("scaling", &ScalingResult{BlockSize: 128, Points: []ScalingPoint{{CPUs: 2}}})
	if obj["Schema"] != "kmembench/scaling" || obj["SchemaVersion"] != version {
		t.Errorf("object envelope: Schema %v, SchemaVersion %v", obj["Schema"], obj["SchemaVersion"])
	}
	if obj["BlockSize"] != json.Number("128") || len(obj["Points"].([]any)) != 1 {
		t.Errorf("object result not at top level: %v", obj)
	}

	rows := emit("insns", []InsnRow{{}, {}})
	if rows["Schema"] != "kmembench/insns" || rows["SchemaVersion"] != version {
		t.Errorf("row envelope: Schema %v, SchemaVersion %v", rows["Schema"], rows["SchemaVersion"])
	}
	if r, ok := rows["Rows"].([]any); !ok || len(r) != 2 {
		t.Errorf("row slice not wrapped under Rows: %v", rows)
	}

	if err := Emit(&bytes.Buffer{}, "clash", map[string]int{"Schema": 1}); err == nil {
		t.Error("a result with its own Schema field was accepted")
	}
}
