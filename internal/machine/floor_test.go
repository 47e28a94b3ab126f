package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The per-event floor (DESIGN.md §16): the schedule hash, the cache and
// TLB slot arithmetic and the load and store were rewritten as exact
// equivalents. The code they replaced lives on here as the reference.

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

// accessRef is a load or store as CPU.Read and CPU.Write charged it
// before a plain CPU settled its own hits: the instruction, then one
// access body for both kinds, the miss transfer inline.
func accessRef(c *CPU, l Line, kind AccessKind) {
	c.insns++
	c.clock += CyclesPerInsn
	m := c.m
	c.tlbCheck(l)
	slot := &c.cache[uint64(l)&uint64(len(c.cache)-1)]
	dir := m.dirSlot(l)
	present := *slot == l

	var cost int64
	if kind == ReadAccess {
		if present && (*dir == ownerNone || *dir == int8(c.id)) {
			c.hits++
		} else {
			c.misses++
			before := c.clock
			c.clock = m.busTxn(c, c.remoteFor(l, *dir))
			if *dir != ownerNone && *dir != int8(c.id) {
				*dir = ownerNone
			}
			*slot = l
			cost = c.clock - before
			if m.profile != nil {
				m.noteProfile(l, false)
			}
		}
	} else if present && *dir == int8(c.id) {
		c.hits++
	} else {
		c.misses++
		before := c.clock
		c.clock = m.busTxn(c, c.remoteFor(l, *dir))
		*dir = int8(c.id)
		*slot = l
		cost = c.clock - before
		if m.profile != nil {
			m.noteProfile(l, false)
		}
	}
	if c.tracing {
		c.trace = append(c.trace, TraceEvent{Line: l, Kind: kind, Cycles: cost})
	}
}

// TestHitFastPathMatchesAccess drives one seeded stream of loads, stores,
// atomics and CASes over arena and metadata lines on two identical
// 8-CPU, 2-node machines, with the TLB model off and on. The fast
// machine runs CPU.Read, Write, ReadAddr and WriteAddr untraced, so with
// the TLB off its CPUs are plain and settle each access in read or
// write, and with it on they go through access. The reference machine
// runs each load and store through accessRef, with every CPU tracing.
// After every op the CPU's clock and counters must agree, and at the end
// the buses'. For a stretch of the stream one CPU of the fast machine
// traces too, which takes it off the plain path: its events must be the
// reference's for the same stretch, one per access.
func TestHitFastPathMatchesAccess(t *testing.T) {
	for _, tlb := range []int{0, 16} {
		t.Run(fmt.Sprintf("tlb%d", tlb), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NumCPUs = 8
			cfg.Nodes = 2
			cfg.MemBytes = 4 << 20
			cfg.TLBEntries = tlb
			fast, ref := New(cfg), New(cfg)
			var meta []Line
			for _, m := range []*Machine{fast, ref} {
				m.SetPageHomeRange(8, 8, 1) // arena lines 1024-2047 live on node 1
				meta = meta[:0]
				for i := 0; i < 16; i++ {
					meta = append(meta, m.NewMetaLineOn(i%2))
				}
			}
			for i := 0; i < cfg.NumCPUs; i++ {
				ref.CPU(i).StartTrace()
			}
			rng := rand.New(rand.NewSource(int64(tlb) + 1))
			cpu := 0
			const traced, traceFrom, traceTo = 3, 100_000, 120_000
			mark, accesses := 0, 0
			for op := 0; op < 200_000; op++ {
				switch op {
				case traceFrom:
					fast.CPU(traced).StartTrace()
					mark = len(ref.CPU(traced).trace)
				case traceTo:
					got, want := fast.CPU(traced).StopTrace(), ref.CPU(traced).trace[mark:]
					if !slices.Equal(got, want) || len(got) != accesses {
						t.Fatalf("CPU %d traced %d events over ops [%d,%d), reference %d, accesses %d", traced, len(got), traceFrom, traceTo, len(want), accesses)
					}
				}
				if rng.Intn(4) == 0 {
					cpu = rng.Intn(cfg.NumCPUs) // runs of ops on one CPU, so lines stay cached
				}
				// Mostly a small shared working set, sometimes one that
				// overflows the 256-line cache and reaches node 1's pages.
				var l Line
				switch r := rng.Intn(8); {
				case r < 2:
					l = meta[rng.Intn(len(meta))]
				case r < 7:
					l = Line(rng.Intn(96))
				default:
					l = Line(rng.Intn(2048))
				}
				// Kinds 0-2 load, 3-5 store, 6 and 7 load and store by
				// address, 8 atomic, 9 CAS, 10 straight-line work.
				kind := rng.Intn(11)
				if l&metaTag != 0 && (kind == 6 || kind == 7) {
					kind = 3 * (kind - 6) // a metadata line has no address
				}
				addr := uint64(l)<<LineShift + uint64(rng.Intn(1<<LineShift))
				if cpu == traced && op >= traceFrom && op < traceTo && kind < 10 {
					accesses++
				}
				c, r := fast.CPU(cpu), ref.CPU(cpu)
				switch kind {
				case 0, 1, 2:
					c.Read(l)
					accessRef(r, l, ReadAccess)
				case 3, 4, 5:
					c.Write(l)
					accessRef(r, l, WriteAccess)
				case 6:
					c.ReadAddr(addr)
					accessRef(r, ref.LineOf(addr), ReadAccess)
				case 7:
					c.WriteAddr(addr)
					accessRef(r, ref.LineOf(addr), WriteAccess)
				case 8:
					c.Atomic(l)
					r.Atomic(l)
				case 9:
					c.CAS(l)
					r.CAS(l)
				default:
					c.Work(1)
					r.Work(1)
				}
				if got, want := fast.CPU(cpu).Stats(), ref.CPU(cpu).Stats(); got != want {
					t.Fatalf("op %d (kind %d, line %#x) on CPU %d:\nfast %+v\nref  %+v", op, kind, l, cpu, got, want)
				}
			}
			var hits uint64
			for i := 0; i < cfg.NumCPUs; i++ {
				if got, want := fast.CPU(i).Stats(), ref.CPU(i).Stats(); got != want {
					t.Fatalf("CPU %d at the end:\nfast %+v\nref  %+v", i, got, want)
				}
				hits += fast.CPU(i).Stats().Hits
			}
			for node := 0; node < cfg.Nodes; node++ {
				if got, want := fast.NodeBusTransactions(node), ref.NodeBusTransactions(node); got != want {
					t.Fatalf("node %d bus: %d transactions, reference %d", node, got, want)
				}
			}
			if got, want := fast.InterconnectTransactions(), ref.InterconnectTransactions(); got != want || got == 0 {
				t.Fatalf("interconnect: %d transactions, reference %d (want some)", got, want)
			}
			if hits == 0 {
				t.Fatal("the stream never hit: it does not exercise the hit test")
			}
		})
	}
}
