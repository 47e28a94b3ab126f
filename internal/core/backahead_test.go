package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// refillRecord is one global-layer refill seen by streakFill: the pool's
// streak once the refill counted itself in, the pages the vmblk layer
// mapped between the refilling operation's start and the refill's end
// (the maps inside its hold of the global pool's lock: a back-ahead comes
// after it), and the cycles that operation held the global pool's lock.
type refillRecord struct {
	streak int
	maps   int
	hold   int64
}

// streakFill is the contended fill of TestBackAheadStreakPinned and
// BenchmarkRefillStreak: ncpu CPUs each allocate perCPU blocks of size
// bytes from a cold start, interleaved by the simulator in clock order,
// sweep's fill on one class. It returns the allocator, the machine and
// every refill of the class's pool in order.
func streakFill(tb testing.TB, ncpu int, size uint64, perCPU int) (*Allocator, *machine.Machine, []refillRecord) {
	tb.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 2048
	m := machine.New(cfg)
	var (
		a    *Allocator
		maps int
		recs []refillRecord
		held int64
	)
	cls := -1
	hook := func(c int, ev LayerEvent, n int) {
		switch {
		case ev == EvPagesMap:
			maps += n
		case ev == EvGlobalRefill && c == cls:
			g := a.classes[cls].globals[0]
			recs = append(recs, refillRecord{streak: g.pp.streak, maps: maps, hold: g.lk.Stats().HoldCycles - held})
		}
	}
	a, err := New(m, Params{Hook: hook})
	if err != nil {
		tb.Fatal(err)
	}
	cls, _ = a.classOf(size)
	g := a.classes[cls].globals[0]
	left := make([]int, ncpu)
	for i := range left {
		left[i] = perCPU
	}
	m.Run(func(c *machine.CPU) bool {
		if left[c.ID()] == 0 {
			return false
		}
		maps, held = 0, g.lk.Stats().HoldCycles
		if _, err := a.Alloc(c, size); err != nil {
			tb.Fatal(err)
		}
		left[c.ID()]--
		return true
	})
	return a, m, recs
}

// TestBackAheadStreakPinned: four CPUs filling one class from a cold
// start queue on its pools, so after the first every refill carves fresh
// pages under contention. The first contended refills map their pages
// inside the global pool's hold; from the fifth on, the CPUs taking its
// lists have backed the pages ahead, and a refill's hold maps at most one
// page: a 512-byte refill needs up to all 19 pages of the stock's cap,
// and now that its lists run across adjacent pages it is quick enough
// to meet the last backer still mapping the last span (E35). Since a
// carve takes the stock oldest first, where it used to jump ahead to the
// page its list ran on into, two of those refills (the 11th and the
// 15th) find the one page left in the stock stamped in time and map none
// (E36). The pages each refill mapped in its hold are pinned.
func TestBackAheadStreakPinned(t *testing.T) {
	a, _, recs := streakFill(t, 4, 512, 600)
	wantMaps := []int{27, 19, 19, 18, 19, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0}
	if len(recs) != len(wantMaps) {
		t.Fatalf("fill ran %d refills, want %d", len(recs), len(wantMaps))
	}
	var coldHold int64 = 1 << 62
	for i, r := range recs {
		if r.streak != i {
			t.Errorf("refill %d: streak %d, want %d: every refill after the first is contended and carves", i, r.streak, i)
		}
		if r.maps != wantMaps[i] {
			t.Errorf("refill %d (streak %d) mapped %d pages in its hold, want %d", i, r.streak, r.maps, wantMaps[i])
		}
		if r.streak <= backAheadStreak {
			coldHold = min(coldHold, r.hold)
		} else if 4*r.hold > coldHold {
			t.Errorf("refill %d held the global pool's lock %d cycles, more than a quarter of the shortest unarmed hold, %d", i, r.hold, coldHold)
		}
	}
	checkOK(t, a)
}

// TestBackAheadArms16: a 16-byte refill takes 150 of a page's 256
// blocks, so every other refill of a cold four-CPU fill only draws the
// page the one before it carved. A draw neither extends nor ends the
// streak, so the carving refills arm the pool (the sixth refill, the
// fourth carving one in a row), and from the refill after it on none
// maps a page inside the global pool's hold: the one page each carving
// refill needs is in the stock. The streak and the maps of each refill
// are pinned.
func TestBackAheadArms16(t *testing.T) {
	a, _, recs := streakFill(t, 4, 16, 600)
	wantStreak := []int{0, 1, 1, 2, 2, 3, 4, 4, 5, 5, 6, 7, 7, 8, 8, 9}
	wantMaps := []int{9, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if len(recs) != len(wantMaps) {
		t.Fatalf("fill ran %d refills, want %d", len(recs), len(wantMaps))
	}
	armedAt := -1
	for i, r := range recs {
		if r.streak != wantStreak[i] || r.maps != wantMaps[i] {
			t.Errorf("refill %d: streak %d, %d pages mapped in its hold; want streak %d, %d mapped",
				i, r.streak, r.maps, wantStreak[i], wantMaps[i])
		}
		if armedAt < 0 && r.streak >= backAheadStreak {
			armedAt = i
		} else if armedAt >= 0 && r.maps != 0 {
			t.Errorf("refill %d, after the pool armed at refill %d, mapped %d pages in its hold", i, armedAt, r.maps)
		}
	}
	if armedAt < 0 {
		t.Fatal("the 16-byte pool never armed")
	}
	checkOK(t, a)
}

// TestBackAheadSingleCPUNever: one CPU never waits on a lock, so no
// refill is contended, the streak never starts and nothing is backed
// ahead.
func TestBackAheadSingleCPUNever(t *testing.T) {
	a, _, recs := streakFill(t, 1, 512, 2400)
	if len(recs) < 2*backAheadStreak {
		t.Fatalf("fill ran only %d refills", len(recs))
	}
	for i, r := range recs {
		if r.streak != 0 {
			t.Fatalf("refill %d: streak %d on one CPU", i, r.streak)
		}
	}
	if n := a.ReadyPages(); n != 0 {
		t.Errorf("one CPU backed %d pages ahead", n)
	}
	checkOK(t, a)
}

// arm puts pool p on a streak, as four contended refills in a row would.
func arm(c *machine.CPU, p *pagePool) {
	p.lk.Acquire(c)
	p.streak = backAheadStreak
	p.armed.Store(true)
	p.lk.Release(c)
}

// poolOf returns a two-CPU allocator's size-byte class and its pool.
func poolOf(t *testing.T, size uint64) (*Allocator, *machine.Machine, *pagePool) {
	a, m := testAllocator(t, 2, 1024, Params{})
	cls, _ := a.classOf(size)
	return a, m, a.classes[cls].pages[0]
}

// stockUp arms pool p and backs pages ahead on c until the stock is at
// its cap, returning the ready pages in the order they were filed.
func stockUp(c *machine.CPU, p *pagePool) []int32 {
	arm(c, p)
	for n := int32(-1); p.stocked.Load() != n; {
		n = p.stocked.Load()
		p.backAhead(c)
	}
	var pgs []int32
	for _, r := range p.ready {
		pgs = append(pgs, r.pg)
	}
	return pgs
}

// TestBackAheadStamp: a ready page is stamped with the clock of the CPU
// that filed it. A carve on a CPU whose clock has not reached the stamp
// carves a fresh page from the vmblk layer and leaves the stock alone;
// once its clock passes the stamp, the carve takes the stocked pages and
// maps none.
func TestBackAheadStamp(t *testing.T) {
	a, m, pp := poolOf(t, 4096)
	early, late := m.CPU(0), m.CPU(1)
	late.Idle(1_000_000)
	arm(late, pp)
	pp.backAhead(late)
	target := a.classes[pp.cls].target
	if len(pp.ready) != target || pp.ready[0].at <= early.Now() {
		t.Fatalf("stock %v after one back-ahead at clock %d, want %d pages stamped after %d", pp.ready, late.Now(), target, early.Now())
	}
	checkOK(t, a)

	maps := a.vm.ev[EvPagesMap]
	if _, err := pp.getLists(early, 1, target); err != nil {
		t.Fatal(err)
	}
	if d := a.vm.ev[EvPagesMap] - maps; d != uint64(target) || len(pp.ready) != target {
		t.Errorf("carve before the stamp mapped %d pages and left %d ready, want %d fresh and the stock untouched", d, len(pp.ready), target)
	}

	early.Idle(pp.ready[len(pp.ready)-1].at - early.Now())
	maps = a.vm.ev[EvPagesMap]
	if _, err := pp.getLists(early, 1, target); err != nil {
		t.Fatal(err)
	}
	if d := a.vm.ev[EvPagesMap] - maps; d != 0 || len(pp.ready) != 0 {
		t.Errorf("carve at the stamp mapped %d pages and left %d ready, want the stock taken and none mapped", d, len(pp.ready))
	}
	checkOK(t, a)
}

// TestBackAheadResidentNotLive: a ready page is resident, so FragStats
// counts it in ResidentBytes, but no caller owns a block of it, so
// LiveBytes does not move. A release in the pool returns the stock and
// ends the streak.
func TestBackAheadResidentNotLive(t *testing.T) {
	a, m, pp := poolOf(t, 4096)
	c := m.CPU(0)
	b, err := a.Alloc(c, 4096)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Stats(c).Frag
	arm(c, pp)
	pp.backAhead(c)
	after := a.Stats(c).Frag
	n := a.ReadyPages()
	if n == 0 || after.ResidentBytes-before.ResidentBytes != uint64(n)*4096 || after.LiveBytes != before.LiveBytes {
		t.Errorf("%d ready pages: resident %d -> %d, live %d -> %d; want resident up by the pages, live unchanged",
			n, before.ResidentBytes, after.ResidentBytes, before.LiveBytes, after.LiveBytes)
	}
	checkOK(t, a)

	a.Free(c, b, 4096)
	a.DrainCPU(c, 0)
	a.DrainAll(c)
	if n := a.ReadyPages(); n != 0 || pp.streak != 0 || pp.armed.Load() {
		t.Errorf("after the pool released pages: %d ready, streak %d, armed %v", n, pp.streak, pp.armed.Load())
	}
	if got, floor := a.m.Phys().Mapped(), a.HeaderPages(); got != floor {
		t.Errorf("%d pages mapped after a full drain, header floor %d", got, floor)
	}
	checkOK(t, a)
}

// TestCheckConsistencyReadyStock: the audit rejects a ready page that is
// also filed in a bucket, one that is in two stocks, and a reservation
// count that disagrees with the stock. A back-ahead of a 512-byte list
// claims its two pages as one span; the audit holds the span's second
// page to the same rules as a page claimed alone: split for the class,
// filed in no bucket, every block in its tail.
func TestCheckConsistencyReadyStock(t *testing.T) {
	second := func(pp *pagePool) int32 { return pp.ready[1].pg }
	for _, tc := range []struct {
		name    string
		size    uint64
		corrupt func(a *Allocator, pp *pagePool)
		want    string
	}{
		{"filed", 4096, func(a *Allocator, pp *pagePool) { a.vm.pdOf(pp.ready[0].pg).filed = 1 }, "filed in bucket"},
		{"twice", 4096, func(a *Allocator, pp *pagePool) { pp.ready = append(pp.ready, pp.ready[0]); pp.stocked.Add(1) }, "two stocks"},
		{"reserved", 4096, func(a *Allocator, pp *pagePool) { pp.stocked.Add(1) }, "reserves"},
		{"span filed", 512, func(a *Allocator, pp *pagePool) { a.vm.pdOf(second(pp)).filed = 3 }, "filed in bucket"},
		{"span unsplit", 512, func(a *Allocator, pp *pagePool) { a.vm.pdOf(second(pp)).state = pdAllocMid }, "alloc-mid"},
		{"span class", 512, func(a *Allocator, pp *pagePool) { a.vm.pdOf(second(pp)).class-- }, "ready page"},
		{"span tail", 512, func(a *Allocator, pp *pagePool) { a.vm.pdOf(second(pp)).setTail(pp.blocksPerPage - 1) }, "-block tail"},
	} {
		a, m, pp := poolOf(t, tc.size)
		arm(m.CPU(0), pp)
		pp.backAhead(m.CPU(0))
		checkOK(t, a)
		if tc.size == 512 && (len(pp.ready) != 2 || second(pp) != pp.ready[0].pg+1) {
			t.Fatalf("%s: one 512-byte back-ahead filed %v, want two adjacent pages", tc.name, pp.ready)
		}
		tc.corrupt(a, pp)
		if err := a.CheckConsistency(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit says %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestNativeBackAheadRace runs back-ahead, refills, spills that release
// pages and DrainAll on one pool from four goroutines over real mutexes.
// A Native lock never reports a wait, so the streak is set by hand
// before every round; the streak, the stamps and the stock are only ever
// read under the pool's lock, which is what the race detector checks.
// Both classes back each list's two pages as one span, and the 512-byte
// one carves lists that run across adjacent pages.
func TestNativeBackAheadRace(t *testing.T) {
	for _, size := range []uint64{4096, 512} {
		t.Run(fmt.Sprint(size), func(t *testing.T) { nativeBackAheadRace(t, size) })
	}
}

func nativeBackAheadRace(t *testing.T, size uint64) {
	a, m := nativeAllocator(t, 4, 4096)
	cls, _ := a.classOf(size)
	pp := a.classes[cls].pages[0]
	var wg sync.WaitGroup
	for i := 0; i < m.NumCPUs(); i++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			var held []arena.Addr
			for round := 0; round < scaledOps(200); round++ {
				arm(c, pp)
				pp.backAhead(c)
				for k := 0; k < 8*4096/int(size); k++ {
					b, err := a.Alloc(c, size)
					if err != nil {
						t.Error(err)
						return
					}
					held = append(held, b)
				}
				for _, b := range held {
					a.Free(c, b, size)
				}
				held = held[:0]
				if c.ID() == 0 && round%16 == 0 {
					a.DrainAll(c)
				}
			}
		}(m.CPU(i))
	}
	wg.Wait()
	c := m.CPU(0)
	a.DrainAll(c)
	if n := a.ReadyPages(); n != 0 {
		t.Errorf("%d ready pages after the final drain", n)
	}
	checkOK(t, a)
}
