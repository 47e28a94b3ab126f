package main

import "testing"

func TestHistExactBelowThreshold(t *testing.T) {
	var h hist
	for v := int64(0); v < histExact; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.001, 0.25, 0.5, 0.99, 1} {
		want := int64(q*histExact+0.999999) - 1
		if want < 0 {
			want = 0
		}
		if got := h.quantile(q); got != want {
			t.Errorf("quantile(%v) = %d, want the exact sample %d", q, got, want)
		}
	}
}

func TestHistRelativeErrorAboveThreshold(t *testing.T) {
	for _, v := range []int64{4096, 4097, 5000, 65535, 65536, 100000, 1 << 20, 1<<30 + 12345, 1<<43 + 7} {
		i := histIndex(v)
		up := histUpper(i)
		if up < v {
			t.Errorf("value %d lands in bucket %d whose upper bound %d is below it", v, i, up)
		}
		if err := float64(up-v) / float64(v); err > 1.0/histSub {
			t.Errorf("value %d reported as %d: relative error %.4f exceeds 1/%d", v, up, err, histSub)
		}
		if i > 0 && histUpper(i-1) >= v {
			t.Errorf("value %d (bucket %d) is not above the previous bucket's bound %d", v, i, histUpper(i-1))
		}
	}
	if histIndex(1<<60) != histBuckets-1 || histIndex(-5) != 0 {
		t.Error("out-of-range values must clamp to the end buckets")
	}
}

func TestHistQuantileNearestRank(t *testing.T) {
	var h hist
	// 990 fast samples and 10 slow ones: p99 is the last fast sample,
	// p99.9 the largest slow one.
	for i := 0; i < 990; i++ {
		h.add(50)
	}
	for i := 0; i < 10; i++ {
		h.add(int64(1000 + i))
	}
	if got := h.quantile(0.99); got != 50 {
		t.Errorf("p99 = %d, want 50", got)
	}
	if got := h.quantile(0.991); got != 1000 {
		t.Errorf("p99.1 = %d, want 1000", got)
	}
	if got := h.quantile(0.999); got != 1008 {
		t.Errorf("p99.9 = %d, want 1008", got)
	}
	if got, want := h.mean(), (990*50.0+10*1004.5)/1000; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if h.max != 1009 {
		t.Errorf("max = %d, want 1009", h.max)
	}
	var empty hist
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("an empty histogram must report 0")
	}
}

func TestHistQuantileNeverExceedsMax(t *testing.T) {
	var h hist
	h.add(70000) // bucket upper bound is above the sample
	if got := h.quantile(1); got != 70000 {
		t.Errorf("quantile(1) = %d, want the max sample 70000", got)
	}
}
