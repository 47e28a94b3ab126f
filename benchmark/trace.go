package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one interval recorded by the traced run, from the benchmark's
// side of a public call. An op span (Parent -1) is one logical operation
// of the workload; its children are the stamped calls it made; a call's
// children are the layer events the allocator's Hook reported while the
// call was in flight (instants: VStart == VEnd). Spans of one operation
// share Op — the session id in serve, the per-CPU op index elsewhere.
type span struct {
	Name   string `json:"name"`
	CPU    int    `json:"cpu"`
	Op     uint64 `json:"op"`
	Parent int    `json:"parent"`
	Depth  string `json:"depth,omitempty"` // calls: deepest layer reached
	VStart int64  `json:"v_start_cycles"`
	VEnd   int64  `json:"v_end_cycles"`
	HStart int64  `json:"h_start_ns,omitempty"` // host ns since the window opened
	HEnd   int64  `json:"h_end_ns,omitempty"`
}

// maxSpans caps the span file; ops are sampled at a fixed stride chosen
// so a full run stays under it.
const maxSpans = 1 << 15

// spanLog keeps sampled spans in memory until the run ends.
type spanLog struct {
	spans  []span
	stride uint64
	t0     time.Time
}

func newSpanLog(p *plan) *spanLog {
	// An op has a handful of child spans; sample so that roughly
	// maxSpans/8 ops are kept per worker-agnostic run.
	stride := p.timedOps / (maxSpans / 8)
	if stride < 1 {
		stride = 1
	}
	return &spanLog{spans: make([]span, 0, maxSpans), stride: stride}
}

func (l *spanLog) sample(opSeq uint64) bool {
	return opSeq%l.stride == 0 && len(l.spans) < maxSpans-64
}

// add appends sp and returns its index, or -1 once the log is full.
func (l *spanLog) add(sp span) int {
	if len(l.spans) >= maxSpans {
		return -1
	}
	l.spans = append(l.spans, sp)
	return len(l.spans) - 1
}

func (l *spanLog) hostNow() int64 { return time.Since(l.t0).Nanoseconds() }

// traceFile is what -trace 1 leaves in <out>/trace-<workload>.json.
type traceFile struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	OpStride   uint64 `json:"op_sample_stride"`
	SpanCap    int    `json:"span_cap"`
	Spans      []span `json:"spans"`
	ReadMeHint string `json:"how_to_read"`
}

func writeTraceFile(dir, workload string, seed uint64, l *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{
		Workload: workload, Seed: seed, OpStride: l.stride, SpanCap: maxSpans, Spans: l.spans,
		ReadMeHint: "parent is an index into spans (-1: an op). A call's self time is its " +
			"v_end-v_start; event:* children are instants marking the layer boundaries crossed " +
			"inside it. See benchmark/README.md.",
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
