package workload

import (
	"testing"
	"testing/quick"
)

func TestFixed(t *testing.T) {
	r := NewRand(1)
	f := Fixed(128)
	for i := 0; i < 10; i++ {
		if f.Next(r) != 128 {
			t.Fatal("Fixed not fixed")
		}
	}
	if f.Max() != 128 {
		t.Fatal("Max wrong")
	}
}

func TestUniformInRange(t *testing.T) {
	r := NewRand(2)
	u := Uniform{Lo: 10, Hi: 20}
	seen := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		v := u.Next(r)
		if v < 10 || v > 20 {
			t.Fatalf("out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 11 {
		t.Fatalf("only %d distinct values", len(seen))
	}
}

func TestChoiceWeights(t *testing.T) {
	r := NewRand(3)
	c := NewChoice([]uint64{16, 4096}, []int{9, 1})
	small := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if c.Next(r) == 16 {
			small++
		}
	}
	if small < 8500 || small > 9500 {
		t.Fatalf("weight skew wrong: %d/%d small", small, n)
	}
	if c.Max() != 4096 {
		t.Fatal("Max wrong")
	}
}

func TestChoicePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"mismatch": func() { NewChoice([]uint64{1}, []int{1, 2}) },
		"empty":    func() { NewChoice(nil, nil) },
		"zero":     func() { NewChoice([]uint64{1}, []int{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(4)
	z := NewZipf(r, 1.2, 1000)
	counts := map[uint64]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// The hottest id must dominate: far more than uniform share.
	if counts[0] < n/100 {
		t.Fatalf("no skew: id 0 drawn %d times", counts[0])
	}
}

func TestDeterminism(t *testing.T) {
	gen := func() []uint64 {
		r := NewRand(99)
		u := Uniform{Lo: 1, Hi: 1 << 20}
		out := make([]uint64, 50)
		for i := range out {
			out[i] = u.Next(r)
		}
		return out
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestCyclicPhases(t *testing.T) {
	ph := Cyclic(1000, 100)
	if len(ph) != 2 {
		t.Fatalf("%d phases", len(ph))
	}
	if ph[0].Sizes.Max() >= 4096 || ph[1].Sizes.Max() < 8192 {
		t.Fatal("day/night size separation wrong")
	}
}

func TestQuickUniformBounds(t *testing.T) {
	r := NewRand(7)
	f := func(lo uint16, span uint16) bool {
		u := Uniform{Lo: uint64(lo), Hi: uint64(lo) + uint64(span)}
		v := u.Next(r)
		return v >= u.Lo && v <= u.Hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseDist(t *testing.T) {
	cases := []struct {
		spec string
		max  uint64
	}{
		{"fixed:128", 128},
		{"uniform:16:4096", 4096},
		{"choice:32,64,256", 256},
	}
	for _, tc := range cases {
		d, err := ParseDist(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if d.Max() != tc.max {
			t.Fatalf("%s: Max = %d, want %d", tc.spec, d.Max(), tc.max)
		}
	}
	for _, bad := range []string{"", "fixed", "fixed:x", "uniform:1", "uniform:9:3", "uniform:0:5", "choice:", "zipf:2", "fixed:1:2", "choice:1:2"} {
		if _, err := ParseDist(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}
