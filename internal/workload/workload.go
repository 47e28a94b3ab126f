// Package workload generates the deterministic allocation workloads the
// experiments replay: fixed and mixed size distributions, Zipf-skewed
// resource popularity for the DLM benchmark, and the paper's cyclic
// commercial day/night pattern ("the machine might be used for data entry
// and queries as part of a distributed database during the day, and for
// backups and database reorganization at night").
package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// NewRand returns a deterministic PRNG for the given seed; every
// experiment seeds its streams explicitly so figures regenerate
// bit-identically.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SizeDist produces allocation request sizes.
type SizeDist interface {
	// Next returns the next request size in bytes.
	Next(r *rand.Rand) uint64
	// Max returns the largest size the distribution can produce.
	Max() uint64
	// String describes the distribution for reports.
	String() string
}

// Fixed returns size every time — the best-case benchmark's shape.
type Fixed uint64

// Next implements SizeDist.
func (f Fixed) Next(*rand.Rand) uint64 { return uint64(f) }

// Max implements SizeDist.
func (f Fixed) Max() uint64 { return uint64(f) }

// String implements SizeDist.
func (f Fixed) String() string { return fmt.Sprintf("fixed(%d)", uint64(f)) }

// Uniform draws uniformly from [Lo, Hi].
type Uniform struct{ Lo, Hi uint64 }

// Next implements SizeDist.
func (u Uniform) Next(r *rand.Rand) uint64 {
	return u.Lo + uint64(r.Int63n(int64(u.Hi-u.Lo+1)))
}

// Max implements SizeDist.
func (u Uniform) Max() uint64 { return u.Hi }

// String implements SizeDist.
func (u Uniform) String() string { return fmt.Sprintf("uniform(%d,%d)", u.Lo, u.Hi) }

// Choice draws from a weighted set of sizes — e.g. a kernel's mix of
// small control blocks with occasional big buffers.
type Choice struct {
	Sizes   []uint64
	Weights []int
	total   int
}

// NewChoice builds a weighted choice distribution.
func NewChoice(sizes []uint64, weights []int) *Choice {
	if len(sizes) != len(weights) || len(sizes) == 0 {
		panic("workload: sizes and weights must match and be non-empty")
	}
	c := &Choice{Sizes: sizes, Weights: weights}
	for _, w := range weights {
		if w <= 0 {
			panic("workload: non-positive weight")
		}
		c.total += w
	}
	return c
}

// Next implements SizeDist.
func (c *Choice) Next(r *rand.Rand) uint64 {
	n := r.Intn(c.total)
	for i, w := range c.Weights {
		if n < w {
			return c.Sizes[i]
		}
		n -= w
	}
	return c.Sizes[len(c.Sizes)-1]
}

// Max implements SizeDist.
func (c *Choice) Max() uint64 {
	var m uint64
	for _, s := range c.Sizes {
		if s > m {
			m = s
		}
	}
	return m
}

// String implements SizeDist.
func (c *Choice) String() string { return fmt.Sprintf("choice(%v)", c.Sizes) }

// ParseDist reads a size distribution as the command line spells it:
// fixed:N, uniform:LO:HI, or choice:A,B,C (equal weights).
func ParseDist(spec string) (SizeDist, error) {
	kind, args, _ := strings.Cut(spec, ":")
	sep := ":"
	if kind == "choice" {
		sep = ","
	}
	var n []uint64
	for _, s := range strings.Split(args, sep) {
		v, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("size distribution %q: %w", spec, err)
		}
		n = append(n, v)
	}
	switch {
	case kind == "fixed" && len(n) == 1:
		return Fixed(n[0]), nil
	case kind == "uniform" && len(n) == 2 && 0 < n[0] && n[0] <= n[1]:
		return Uniform{Lo: n[0], Hi: n[1]}, nil
	case kind == "choice":
		weights := make([]int, len(n))
		for i := range weights {
			weights[i] = 1
		}
		return NewChoice(n, weights), nil
	}
	return nil, fmt.Errorf("size distribution %q: want fixed:N, uniform:LO:HI with 0 < LO <= HI, or choice:A,B,C", spec)
}

// Zipf draws skewed resource identifiers in [0, N): a few hot resources
// take most of the traffic, as OLTP lock traffic does.
type Zipf struct {
	N uint64
	S float64 // skew, > 1
	z *rand.Zipf
}

// NewZipf builds a Zipf distribution bound to r's stream.
func NewZipf(r *rand.Rand, s float64, n uint64) *Zipf {
	return &Zipf{N: n, S: s, z: rand.NewZipf(r, s, 1, n-1)}
}

// Next returns the next resource id.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// Phase is one leg of a cyclic workload.
type Phase struct {
	Name string
	// Sizes generates the phase's request sizes.
	Sizes SizeDist
	// WorkingSet is the number of blocks held live at steady state.
	WorkingSet int
	// Ops is the number of allocate/free steps in the phase.
	Ops int
}

// Cyclic is the paper's commercial day/night workload: the day phase
// churns huge numbers of small blocks (database locking), the night phase
// wants massive amounts of memory in large blocks (backup/reorg buffers).
// An allocator without online coalescing cannot run it without reboots.
func Cyclic(daysOps, nightOps int) []Phase {
	return []Phase{
		{
			Name:       "day-oltp",
			Sizes:      NewChoice([]uint64{32, 64, 128, 256}, []int{4, 3, 2, 1}),
			WorkingSet: 400,
			Ops:        daysOps,
		},
		{
			Name:       "night-batch",
			Sizes:      NewChoice([]uint64{8192, 16384, 65536}, []int{3, 2, 1}),
			WorkingSet: 24,
			Ops:        nightOps,
		},
	}
}
