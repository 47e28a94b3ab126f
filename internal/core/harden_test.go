package core

import (
	"strings"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/harden"
	"kmem/internal/machine"
)

// newHardenAlloc builds a small machine and an allocator with the given
// hardening config, collecting every report into the returned slice.
func newHardenAlloc(t *testing.T, hcfg *harden.Config) (*machine.Machine, *Allocator, *[]harden.Report) {
	t.Helper()
	var reports []harden.Report
	prev := hcfg.OnReport
	hcfg.OnReport = func(r harden.Report) {
		reports = append(reports, r)
		if prev != nil {
			prev(r)
		}
	}
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	a, err := New(m, Params{Harden: hcfg})
	if err != nil {
		t.Fatal(err)
	}
	return m, a, &reports
}

// TestHardenOffCycleIdentity proves hardening is opt-out-clean: with
// Params.Harden nil the golden mixed workload replays the recorded
// per-CPU cycle counts bit for bit, on one node and on four.
func TestHardenOffCycleIdentity(t *testing.T) {
	assertGolden(t, "nodes=1",
		shardGoldenCycles(t, 1, Params{}), goldenCyclesNodes1)
	assertGolden(t, "nodes=4",
		shardGoldenCycles(t, 4, Params{}), goldenCyclesNodes4)
}

// TestHardenNoFalsePositives runs the full golden mixed workload —
// standard and cookie churn, cross-CPU frees, the large path, drains —
// under PolicyPanic. Any false detection panics the test.
func TestHardenNoFalsePositives(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		shardGoldenCycles(t, nodes, Params{Harden: &harden.Config{Policy: harden.PolicyPanic}})
	}
}

// TestHardenOverrun plants an out-of-band write past the usable size and
// asserts it is detected at free, attributed to the planting site, and
// contained by quarantining the page without breaking the allocator.
func TestHardenOverrun(t *testing.T) {
	m, a, reports := newHardenAlloc(t, &harden.Config{})
	c := m.CPU(0)
	usable := a.RoundedSize(64)

	a.SetHardenSite(c, "test:victim")
	b, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	a.SetHardenSite(c, "test:other")

	// The canary starts right past the usable bytes; smash its first byte.
	m.Mem().Fill(b+arena.Addr(usable), 1, 0x41)
	a.Free(c, b, 64)

	if len(*reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(*reports))
	}
	rep := (*reports)[0]
	if rep.Kind != harden.KindOverrun {
		t.Errorf("kind = %v, want overrun", rep.Kind)
	}
	if rep.Addr != uint64(b) {
		t.Errorf("addr = %#x, want %#x", rep.Addr, uint64(b))
	}
	if rep.Offset != usable {
		t.Errorf("offset = %d, want %d", rep.Offset, usable)
	}
	if rep.Got != 0x41 || rep.Expected != harden.CanaryByte {
		t.Errorf("bytes = got %#x want-expected %#x", rep.Got, rep.Expected)
	}
	if rep.LastAlloc.Site != "test:victim" {
		t.Errorf("last alloc site = %q, want test:victim", rep.LastAlloc.Site)
	}
	if !strings.Contains(rep.String(), "overrun") {
		t.Errorf("report string %q does not name the kind", rep.String())
	}

	st := a.Stats(c)
	if st.Quarantine.Overruns != 1 || st.Quarantine.Detections != 1 {
		t.Errorf("quarantine stats = %+v, want 1 overrun", st.Quarantine)
	}
	if st.Quarantine.Pages != 1 {
		t.Errorf("quarantined pages = %d, want 1", st.Quarantine.Pages)
	}
	if got := m.Phys().Stats().Quarantined; got != 1 {
		t.Errorf("physmem quarantined = %d, want 1", got)
	}

	// The allocator keeps serving, and never hands out the quarantined
	// page again even under churn and drains.
	pageOf := func(x arena.Addr) arena.Addr { return x &^ (arena.Addr(m.Config().PageBytes) - 1) }
	qpg := pageOf(b)
	for i := 0; i < 500; i++ {
		nb, err := a.Alloc(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		if pageOf(nb) == qpg {
			t.Fatalf("alloc %d returned block %#x on quarantined page", i, uint64(nb))
		}
		a.Free(c, nb, 64)
	}
	a.DrainAll(c)
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency after quarantine: %v", err)
	}
}

// TestHardenDoubleFree frees the same block twice: the second free must
// be detected, swallowed (no freelist corruption), and survive a full
// consistency check.
func TestHardenDoubleFree(t *testing.T) {
	m, a, reports := newHardenAlloc(t, &harden.Config{})
	c := m.CPU(0)

	b, err := a.Alloc(c, 128)
	if err != nil {
		t.Fatal(err)
	}
	a.SetHardenSite(c, "test:first-free")
	a.Free(c, b, 128)
	a.SetHardenSite(c, "test:second-free")
	a.Free(c, b, 128)

	if len(*reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(*reports))
	}
	rep := (*reports)[0]
	if rep.Kind != harden.KindDoubleFree {
		t.Errorf("kind = %v, want double free", rep.Kind)
	}
	if rep.LastFree.Site != "test:first-free" {
		t.Errorf("last free site = %q, want test:first-free", rep.LastFree.Site)
	}
	if rep.Site != "test:second-free" {
		t.Errorf("detection site = %q, want test:second-free", rep.Site)
	}
	st := a.Stats(c)
	if st.Quarantine.DoubleFrees != 1 {
		t.Errorf("double frees = %d, want 1", st.Quarantine.DoubleFrees)
	}
	a.DrainAll(c)
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency after double free: %v", err)
	}
}

// TestHardenUseAfterFree writes through a stale pointer after free and
// asserts verify-on-alloc catches the destroyed poison before the block
// is handed back out.
func TestHardenUseAfterFree(t *testing.T) {
	m, a, reports := newHardenAlloc(t, &harden.Config{})
	c := m.CPU(0)

	a.SetHardenSite(c, "test:victim")
	b, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(c, b, 64)
	a.SetHardenSite(c, "test:innocent")

	// Late write through the stale pointer, past the freelist link word.
	m.Mem().Fill(b+16, 1, 0x77)

	// The per-CPU cache is LIFO, so the next same-size alloc would serve
	// the corrupted block; verify-on-alloc must park it and serve another.
	nb, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	if nb == b {
		t.Fatalf("allocator served the corrupted block %#x", uint64(b))
	}
	if len(*reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(*reports))
	}
	rep := (*reports)[0]
	if rep.Kind != harden.KindUseAfterFree {
		t.Errorf("kind = %v, want use-after-free", rep.Kind)
	}
	if rep.Addr != uint64(b) {
		t.Errorf("addr = %#x, want %#x", rep.Addr, uint64(b))
	}
	if rep.Offset != 16 {
		t.Errorf("offset = %d, want 16", rep.Offset)
	}
	if rep.LastAlloc.Site != "test:victim" || rep.LastFree.Site != "test:victim" {
		t.Errorf("provenance sites = alloc %q free %q, want test:victim",
			rep.LastAlloc.Site, rep.LastFree.Site)
	}
	st := a.Stats(c)
	if st.Quarantine.UseAfterFrees != 1 || st.Quarantine.Pages != 1 {
		t.Errorf("quarantine stats = %+v, want 1 UAF, 1 page", st.Quarantine)
	}
	a.Free(c, nb, 64)
	a.DrainAll(c)
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency after UAF quarantine: %v", err)
	}
}

// TestHardenAuditSweep runs the at-rest check over each kind of
// hardened object — a small block, a large span, a typed-cache object
// (driven through the cache hooks) — under both policies that keep
// serving. One corruption (a live object's smashed canary, or a resting
// object's broken poison) is met by two sweeps and then by the object's
// next free or allocation: the first sweep files the one report, and no
// later check files another. PolicyLog heals the finding, so the object
// carries on; PolicyQuarantine contains it, so the object is held back.
func TestHardenAuditSweep(t *testing.T) {
	type kind struct {
		name string
		// get hands an object out and returns it with the offset of its
		// canary; put takes it back and says whether it was taken.
		get func(a *Allocator, c *machine.CPU) (arena.Addr, uint64)
		put func(a *Allocator, c *machine.CPU, obj arena.Addr) bool
		// pages is what containment takes out of circulation: a block's
		// page, a span's own pages, none for a pinned cache object.
		pages uint64
	}
	const blockSize, cacheSize = 256, 64
	spanSize := 3*machine.DefaultConfig().PageBytes + 100
	kinds := []kind{
		{name: "block", pages: 1,
			get: func(a *Allocator, c *machine.CPU) (arena.Addr, uint64) {
				b, err := a.Alloc(c, blockSize)
				if err != nil {
					t.Fatal(err)
				}
				return b, a.RoundedSize(blockSize)
			},
			put: func(a *Allocator, c *machine.CPU, b arena.Addr) bool { a.Free(c, b, blockSize); return true },
		},
		{name: "span", pages: 4,
			get: func(a *Allocator, c *machine.CPU) (arena.Addr, uint64) {
				b, err := a.Alloc(c, spanSize)
				if err != nil {
					t.Fatal(err)
				}
				return b, a.RoundedSize(spanSize)
			},
			put: func(a *Allocator, c *machine.CPU, b arena.Addr) bool { a.Free(c, b, spanSize); return true },
		},
		{name: "cache",
			get: func(a *Allocator, c *machine.CPU) (arena.Addr, uint64) {
				obj, err := a.Alloc(c, cacheSize+a.HardenRedzone())
				if err != nil {
					t.Fatal(err)
				}
				if !a.HardenCacheGet(c, "test:cache", obj, cacheSize) {
					t.Fatal("fresh cache object refused")
				}
				return obj, cacheSize
			},
			put: func(a *Allocator, c *machine.CPU, obj arena.Addr) bool {
				return a.HardenCachePut(c, "test:cache", obj, cacheSize, nil)
			},
		},
	}
	for _, k := range kinds {
		for _, pol := range []harden.Policy{harden.PolicyQuarantine, harden.PolicyLog} {
			for _, resting := range []bool{false, true} {
				if resting && k.name == "span" {
					continue // a span rests in the vmblk layer, unpoisoned
				}
				name := k.name + "/" + pol.String() + "/live"
				if resting {
					name = k.name + "/" + pol.String() + "/resting"
				}
				t.Run(name, func(t *testing.T) {
					m, a, reports := newHardenAlloc(t, &harden.Config{Policy: pol})
					c := m.CPU(0)
					obj, usable := k.get(a, c)
					want := harden.KindOverrun
					if resting {
						k.put(a, c, obj)
						m.Mem().Fill(obj+16, 1, 0x42) // a late write into the poison
						want = harden.KindUseAfterFree
					} else {
						m.Mem().Fill(obj+arena.Addr(usable), 2, 0x42) // smash the canary
					}

					reps := a.AuditSweep(c)
					if len(reps) != 1 || reps[0].Kind != want || reps[0].Addr != uint64(obj) {
						t.Fatalf("first sweep filed %v, want one %v at %#x", reps, want, uint64(obj))
					}
					if reps := a.AuditSweep(c); len(reps) != 0 {
						t.Errorf("second sweep re-reported %d findings", len(reps))
					}

					// The object's next lifecycle step: a live one comes
					// back, a resting one is asked for again.
					var served bool
					switch {
					case !resting:
						served = k.put(a, c, obj)
					case k.name == "cache":
						served = a.HardenCacheGet(c, "test:cache", obj, cacheSize)
					default:
						nb, _ := k.get(a, c)
						served = nb == obj
						a.Free(c, nb, blockSize)
					}
					if len(*reports) != 1 {
						t.Fatalf("%d reports filed, want 1: %v", len(*reports), *reports)
					}
					q := a.Stats(c).Quarantine
					if q.Detections != 1 {
						t.Errorf("Stats.Quarantine.Detections = %d, want 1", q.Detections)
					}
					if pol == harden.PolicyLog {
						if q.Pages != 0 || q.Objects != 0 || (resting && !served) {
							t.Errorf("log policy contained %+v (served %v), want the healed object in circulation", q, served)
						}
					} else if q.Pages != k.pages || q.Objects == 0 || (resting && served) {
						// Objects counts every block of a quarantined page
						// parked since, not only the corrupt one.
						t.Errorf("quarantine %+v (served %v), want %d pages and the object held back",
							q, served, k.pages)
					}
					if k.name == "cache" {
						// A contained object is pinned: its cache may
						// never release it.
						pinned := pol == harden.PolicyQuarantine
						if released := a.HardenCacheRelease(c, obj); released == pinned || (q.Pinned == 1) != pinned {
							t.Errorf("release taken %v, Pinned %d; want pinned %v", released, q.Pinned, pinned)
						}
					}
					a.DrainAll(c)
					if err := a.CheckConsistency(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestHardenLargeOverrun plants a write past a large span's usable bytes
// and asserts free-time detection quarantines the whole span.
func TestHardenLargeOverrun(t *testing.T) {
	m, a, reports := newHardenAlloc(t, &harden.Config{})
	c := m.CPU(0)
	size := 3*m.Config().PageBytes + 100
	usable := a.RoundedSize(size)

	b, err := a.Alloc(c, size)
	if err != nil {
		t.Fatal(err)
	}
	m.Mem().Fill(b+arena.Addr(usable), 1, 0x43)
	a.Free(c, b, size)

	if len(*reports) != 1 || (*reports)[0].Kind != harden.KindOverrun {
		t.Fatalf("reports = %v, want one overrun", *reports)
	}
	st := a.Stats(c)
	if st.Quarantine.Pages != 4 {
		t.Errorf("quarantined pages = %d, want 4 (the whole span)", st.Quarantine.Pages)
	}
	if got := m.Phys().Stats().Quarantined; got != 4 {
		t.Errorf("physmem quarantined = %d, want 4", got)
	}
	// Double free of the quarantined span is itself detected and swallowed.
	a.Free(c, b, size)
	if n := len(*reports); n != 2 || (*reports)[1].Kind != harden.KindDoubleFree {
		t.Fatalf("after re-free: %d reports, want double-free second", n)
	}
	a.DrainAll(c)
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestHardenPolicyPanic asserts PolicyPanic aborts with the report text.
func TestHardenPolicyPanic(t *testing.T) {
	m, a, _ := newHardenAlloc(t, &harden.Config{Policy: harden.PolicyPanic})
	c := m.CPU(0)
	b, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(c, b, 64)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double free under PolicyPanic did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "double-free") {
			t.Errorf("panic value %v does not carry the report", r)
		}
	}()
	a.Free(c, b, 64)
}

// TestHardenPolicyLog asserts log-only mode reports but never contains:
// no quarantined pages, and the free proceeds.
func TestHardenPolicyLog(t *testing.T) {
	m, a, reports := newHardenAlloc(t, &harden.Config{Policy: harden.PolicyLog})
	c := m.CPU(0)
	usable := a.RoundedSize(64)
	b, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	m.Mem().Fill(b+arena.Addr(usable), 1, 0x44)
	a.Free(c, b, 64)
	if len(*reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(*reports))
	}
	st := a.Stats(c)
	if st.Quarantine.Pages != 0 || st.Quarantine.Objects != 0 {
		t.Errorf("log-only quarantined %+v, want none", st.Quarantine)
	}
	a.DrainAll(c)
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestHardenEventsAndReports asserts HardenReports retains the filed
// reports and the corruption/quarantine events reach the event spine.
func TestHardenEventsAndReports(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	var ec EventCounter
	a, err := New(m, Params{Harden: &harden.Config{}, Hook: ec.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	b, _ := a.Alloc(c, 64)
	a.Free(c, b, 64)
	a.Free(c, b, 64) // double free

	reps := a.HardenReports(c)
	if len(reps) != 1 || reps[0].Kind != harden.KindDoubleFree {
		t.Fatalf("HardenReports = %v, want one double free", reps)
	}
	if got := ec.Count(EvCorruption); got != 1 {
		t.Errorf("EvCorruption count = %d, want 1", got)
	}
	if got := ec.Count(EvQuarantine); got != 1 {
		t.Errorf("EvQuarantine count = %d, want 1", got)
	}
	if len(reps[0].Recent) == 0 {
		t.Error("report carries no audit-ring history")
	}
}

// TestHardenRoundedSize asserts the hardened allocator reports usable
// capacities (footprint minus redzone), so clients sizing to
// RoundedSize never touch the canary.
func TestHardenRoundedSize(t *testing.T) {
	m, a, _ := newHardenAlloc(t, &harden.Config{})
	plainM := machine.New(machine.DefaultConfig())
	plain, err := New(plainM, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sz := range []uint64{8, 16, 64, 100, 1024, 5000} {
		hr, pr := a.RoundedSize(sz), plain.RoundedSize(sz)
		if hr < sz {
			t.Errorf("RoundedSize(%d) = %d < request", sz, hr)
		}
		// The redzone can push the request into a larger class, so the
		// hardened usable capacity may exceed the plain one — but the
		// footprint (usable + redzone) must stay a real class/page size.
		if prf := plain.RoundedSize(hr + 16); prf != hr+16 {
			t.Errorf("RoundedSize(%d) = %d: footprint %d is not a class size (plain rounds to %d)",
				sz, hr, hr+16, prf)
		}
		_ = pr
	}
	c := m.CPU(0)
	// The full usable capacity is writable without tripping the canary.
	b, err := a.Alloc(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	m.Mem().Fill(b, a.RoundedSize(100), 0x55)
	a.Free(c, b, 100)
	if reps := a.HardenReports(c); len(reps) != 0 {
		t.Fatalf("writing the usable capacity tripped %d reports", len(reps))
	}
}
