package machine

import (
	"math/rand"
	"testing"
)

// The per-event floor (DESIGN.md §16): the schedule hash and the cache and
// TLB slot arithmetic were rewritten as exact equivalents. The code they
// replaced lives on here as the reference.

// fnvMixBytewise is FNV-1a over the eight little-endian bytes of v, one
// xor and one multiply per byte — fnvMix as it was.
func fnvMixBytewise(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func TestFnvMixMatchesBytewise(t *testing.T) {
	check := func(h, v uint64) {
		t.Helper()
		if got, want := fnvMix(h, v), fnvMixBytewise(h, v); got != want {
			t.Fatalf("fnvMix(%#x, %#x) = %#x, bytewise %#x", h, v, got, want)
		}
	}
	vals := []uint64{0, 1, 63, 1 << 56, ^uint64(0)}
	for b := 0; b < 8; b++ {
		for x := uint64(1); x < 256; x++ {
			vals = append(vals, x<<(8*b)) // exactly one byte set
		}
	}
	for _, v := range vals {
		check(fnvOffset, v)
		check(0, v)
		check(^uint64(0), v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		// Half the draws are small, like the ids and clocks runSim mixes.
		check(rng.Uint64(), rng.Uint64()>>(rng.Intn(2)*rng.Intn(64)))
	}
	// Chained exactly as runSim folds a step: id, then clock.
	h, ref := fnvOffset, fnvOffset
	clock := int64(0)
	for i := 0; i < 100_000; i++ {
		id := uint64(rng.Intn(MaxCPUs))
		clock += rng.Int63n(1 << uint(rng.Intn(40)))
		h = fnvMix(fnvMix(h, id), uint64(clock))
		ref = fnvMixBytewise(fnvMixBytewise(ref, id), uint64(clock))
		if h != ref {
			t.Fatalf("step %d (cpu %d, clock %d): chained hash %#x, bytewise %#x", i, id, clock, h, ref)
		}
	}
}

// TestCacheTLBSlotsMatchModulo replays a read stream on one CPU against
// the model the slots were written from: line l lives in cache slot
// l % CacheLines, its page is its address divided by PageBytes, and the
// page lives in TLB slot page % TLBEntries — for every power-of-two TLB
// size and two page sizes.
func TestCacheTLBSlotsMatchModulo(t *testing.T) {
	for _, pageBytes := range []uint64{4096, 8192} {
		for size := 1; size <= 1<<12; size <<= 1 {
			cfg := DefaultConfig()
			cfg.MemBytes = 4 << 20
			cfg.PageBytes = pageBytes
			cfg.TLBEntries = size
			m := New(cfg)
			c := m.CPU(0)

			cache := make([]uint64, CacheLines)
			tlb := make([]uint64, size)
			for i := range cache {
				cache[i] = ^uint64(0)
			}
			for i := range tlb {
				tlb[i] = ^uint64(0)
			}
			var want Stats
			rng := rand.New(rand.NewSource(int64(size)))
			for i := 0; i < 4096; i++ {
				// Clustered addresses, so slots are revisited as well
				// as evicted.
				addr := uint64(rng.Intn(64))*pageBytes*uint64(size)/8 + uint64(rng.Intn(int(4*pageBytes)))
				addr %= cfg.MemBytes
				line := addr >> LineShift
				if page := addr / pageBytes; tlb[page%uint64(size)] != page {
					tlb[page%uint64(size)] = page
					want.TLBMisses++
				}
				if cache[line%CacheLines] == line {
					want.Hits++
				} else {
					cache[line%CacheLines] = line
					want.Misses++
				}
				c.ReadAddr(addr)
			}
			got := c.Stats()
			if got.Hits != want.Hits || got.Misses != want.Misses || got.TLBMisses != want.TLBMisses {
				t.Fatalf("page %d B, %d TLB slots: hits/misses/TLB misses %d/%d/%d, modulo model %d/%d/%d",
					pageBytes, size, got.Hits, got.Misses, got.TLBMisses, want.Hits, want.Misses, want.TLBMisses)
			}
		}
	}
}

// TestTLBFollowsPageBytes: the TLB maps pages of Config.PageBytes, not of
// 4 KB. With 8 KB pages two lines 4 KB apart share a page and so an entry.
func TestTLBFollowsPageBytes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemBytes = 8 << 20
	cfg.PageBytes = 8192
	cfg.TLBEntries = 4
	m := New(cfg)
	c := m.CPU(0)
	c.ReadAddr(0x4000)
	c.ReadAddr(0x5000) // same 8 KB page
	if got := c.Stats().TLBMisses; got != 1 {
		t.Fatalf("two lines of one 8 KB page took %d TLB misses, want 1", got)
	}
	c.ReadAddr(0x6000) // next page
	if got := c.Stats().TLBMisses; got != 2 {
		t.Fatalf("TLB misses after touching the next page = %d, want 2", got)
	}
	// Pages TLBEntries apart conflict: 0x4000 is page 2, page 6 evicts it.
	c.ReadAddr(6 * 8192)
	c.ReadAddr(0x4000)
	if got := c.Stats().TLBMisses; got != 4 {
		t.Fatalf("TLB misses after a conflict eviction = %d, want 4", got)
	}
}
