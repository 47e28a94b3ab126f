package core

import (
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

func TestLatencyBucketEdges(t *testing.T) {
	cases := []struct {
		cycles int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{(1 << 26) - 1, 26}, {1 << 26, 27}, {1 << 40, 27},
	}
	for _, tc := range cases {
		if got := latencyBucket(tc.cycles); got != tc.bucket {
			t.Errorf("latencyBucket(%d) = %d, want %d", tc.cycles, got, tc.bucket)
		}
	}
	if BucketUpper(0) != 0 || BucketUpper(1) != 1 || BucketUpper(3) != 7 {
		t.Errorf("BucketUpper edges wrong: %d %d %d", BucketUpper(0), BucketUpper(1), BucketUpper(3))
	}
}

func TestLatencyQuantiles(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatalf("empty histogram not zero")
	}
	// 900 samples at 3 cycles (bucket 2), 90 at 100 (bucket 7), 10 at
	// 5000 (bucket 13): nearest-rank p50 (rank 500) sits in bucket 2,
	// p99 (rank 990) in bucket 7, p999 (rank 999) in bucket 13.
	for i := 0; i < 900; i++ {
		h.Record(3)
	}
	for i := 0; i < 90; i++ {
		h.Record(100)
	}
	for i := 0; i < 10; i++ {
		h.Record(5000)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.P50(); got != BucketUpper(2) {
		t.Errorf("p50 = %d, want %d", got, BucketUpper(2))
	}
	if got := h.P99(); got != BucketUpper(7) {
		t.Errorf("p99 = %d, want %d", got, BucketUpper(7))
	}
	if got := h.P999(); got != BucketUpper(13) {
		t.Errorf("p999 = %d, want %d", got, BucketUpper(13))
	}
	// Sub of a later snapshot against an earlier one isolates the window.
	before := h
	for i := 0; i < 10; i++ {
		h.Record(1 << 20)
	}
	win := h.Sub(before)
	if win.Count() != 10 || win.P50() != BucketUpper(21) {
		t.Errorf("window: count %d p50 %d", win.Count(), win.P50())
	}
}

// latencyWorkload drives a fixed churn mix — cookie pairs, standard
// allocs with held lifetimes, cross-CPU drains — and returns the
// schedule hash, the final per-CPU clocks and instruction totals, and
// the allocator for further inspection.
func latencyWorkload(t *testing.T, armed bool) (uint64, []int64, []uint64, *Allocator, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 4
	cfg.Nodes = 2
	m := machine.New(cfg)
	m.EnableSchedHash()
	a, err := New(m, Params{Latency: armed})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := a.GetCookie(128)
	if err != nil {
		t.Fatal(err)
	}
	type heldBlock struct {
		addr arena.Addr
		size uint64
	}
	ops := make([]int, cfg.NumCPUs)
	held := make([][]heldBlock, cfg.NumCPUs)
	m.Run(func(c *machine.CPU) bool {
		id := c.ID()
		if ops[id] >= 400 {
			return false
		}
		ops[id]++
		switch ops[id] % 8 {
		case 0:
			a.DrainCPU(c, (id+1)%cfg.NumCPUs)
		case 1, 2:
			size := uint64(64 + 128*(ops[id]%5))
			if b, err := a.Alloc(c, size); err == nil {
				held[id] = append(held[id], heldBlock{b, size})
			}
		case 3:
			if n := len(held[id]); n > 0 {
				h := held[id][0]
				held[id] = held[id][1:]
				a.Free(c, h.addr, h.size)
			}
		default:
			if b, err := a.AllocCookie(c, ck); err == nil {
				a.FreeCookie(c, b, ck)
			}
		}
		return true
	})
	// Release everything still held so the workload quiesces cleanly.
	c := m.CPU(0)
	for id := range held {
		for _, h := range held[id] {
			a.Free(c, h.addr, h.size)
		}
	}
	clocks := make([]int64, cfg.NumCPUs)
	insns := make([]uint64, cfg.NumCPUs)
	for i := range clocks {
		clocks[i] = m.CPU(i).Now()
		insns[i] = m.CPU(i).Stats().Instructions
	}
	return m.SchedHash(), clocks, insns, a, m
}

// TestLatencyArmedScheduleIdentical pins the observation-only contract:
// arming the recorder changes no clock, no instruction count, and no
// schedule hash — the armed run IS the unarmed run, plus histograms.
func TestLatencyArmedScheduleIdentical(t *testing.T) {
	offHash, offClocks, offInsns, offA, _ := latencyWorkload(t, false)
	onHash, onClocks, onInsns, onA, mOn := latencyWorkload(t, true)
	if offHash != onHash {
		t.Errorf("armed schedule hash %#x differs from unarmed %#x", onHash, offHash)
	}
	for i := range offClocks {
		if offClocks[i] != onClocks[i] {
			t.Errorf("cpu %d: armed clock %d differs from unarmed %d", i, onClocks[i], offClocks[i])
		}
		if offInsns[i] != onInsns[i] {
			t.Errorf("cpu %d: armed insns %d differ from unarmed %d", i, onInsns[i], offInsns[i])
		}
	}
	if st := offA.LatencyStats(); st.Alloc.Count() != 0 || st.Free.Count() != 0 {
		t.Errorf("unarmed recorder not empty: %d allocs, %d frees", st.Alloc.Count(), st.Free.Count())
	}

	// The armed histograms must account for exactly the class ops the
	// event spine counted: one alloc sample per EvAlloc, one free sample
	// per EvFree.
	lst := onA.LatencyStats()
	if lst.Alloc.Count() == 0 || lst.Free.Count() == 0 {
		t.Fatalf("armed recorder empty: %d allocs, %d frees", lst.Alloc.Count(), lst.Free.Count())
	}
	var allocs, frees uint64
	for _, cs := range onA.Stats(mOn.CPU(0)).Classes {
		allocs += cs.Allocs
		frees += cs.Frees
	}
	if lst.Alloc.Count() != allocs {
		t.Errorf("alloc samples %d != EvAlloc total %d", lst.Alloc.Count(), allocs)
	}
	if lst.Free.Count() != frees {
		t.Errorf("free samples %d != EvFree total %d", lst.Free.Count(), frees)
	}
	// Warm cookie hits dominate the mix, and in Sim mode every sample is
	// a real (nonzero) cycle delta: the zero bucket must stay empty and
	// the median must sit in a small bucket.
	if lst.Alloc.Buckets[0] != 0 {
		t.Errorf("%d alloc samples in the zero bucket on a Sim machine", lst.Alloc.Buckets[0])
	}
	if p50 := lst.Alloc.P50(); p50 <= 0 || p50 > 1<<10 {
		t.Errorf("alloc p50 %d cycles outside the warm-hit range", p50)
	}
	if p999, p50 := lst.Alloc.P999(), lst.Alloc.P50(); p999 < p50 {
		t.Errorf("p999 %d < p50 %d", p999, p50)
	}
}

// TestLatencySnapshotRace is the torn-snapshot regression test: in
// Native mode, LatencyStats merges per-CPU histograms while other CPUs'
// goroutines are mid-record. Each slot must be copied under the same
// lock the recorder writes under — dropping that discipline makes this
// test fail under -race and lets a merge observe torn bucket counts.
func TestLatencySnapshotRace(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 4
	m := machine.New(cfg)
	a, err := New(m, Params{Latency: true})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := a.GetCookie(64)
	if err != nil {
		t.Fatal(err)
	}
	const opsPerCPU = 3000
	ops := make([]int, cfg.NumCPUs)
	m.Run(func(c *machine.CPU) bool {
		id := c.ID()
		if ops[id] >= opsPerCPU {
			return false
		}
		ops[id]++
		if id == 0 {
			// CPU 0 is the snapshot reader, racing the recorders. Counts
			// are monotone, so every merge must be at or above the last.
			if st := a.LatencyStats(); st.Alloc.Count() > uint64(3*opsPerCPU) {
				t.Errorf("merge overran: %d alloc samples", st.Alloc.Count())
				return false
			}
			return true
		}
		b, err := a.AllocCookie(c, ck)
		if err != nil {
			return true
		}
		a.FreeCookie(c, b, ck)
		return true
	})
	st := a.LatencyStats()
	want := uint64((cfg.NumCPUs - 1) * opsPerCPU)
	if st.Alloc.Count() > want || st.Free.Count() != st.Alloc.Count() {
		t.Fatalf("final snapshot inconsistent: %d allocs, %d frees, at most %d pairs ran",
			st.Alloc.Count(), st.Free.Count(), want)
	}
	// Native stamps are 0: everything lands in the zero bucket.
	if st.Alloc.Buckets[0] != st.Alloc.Count() {
		t.Errorf("native samples escaped the zero bucket: %d of %d", st.Alloc.Buckets[0], st.Alloc.Count())
	}
}
