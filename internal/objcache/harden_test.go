package objcache_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"kmem/internal/allocif"
	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/harden"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

// hardEnv is a cache over a hardened allocator, with every channel a
// detection can surface on: OnReport, the allocator's report buffer and
// Stats.Quarantine, and the event spine.
type hardEnv struct {
	m       *machine.Machine
	a       *core.Allocator
	k       *objcache.Cache
	reports []harden.Report
	events  core.EventCounter
}

func newHardenCache(t *testing.T, size uint64, hcfg *harden.Config, ctor objcache.Ctor, dtor objcache.Dtor) *hardEnv {
	t.Helper()
	e := &hardEnv{}
	hcfg.OnReport = func(r harden.Report) { e.reports = append(e.reports, r) }
	m, a, kma := newAllocator(t, 1, core.Params{Harden: hcfg, Hook: e.events.Hook()})
	k, err := objcache.New(m, kma, "test:hard", size, 8, ctor, dtor, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	e.m, e.a, e.k = m, a, k
	return e
}

// oneLog asserts the allocator logged exactly one detection, of kind at
// obj, on every channel, naming the cache; pinned says whether the
// object was quarantined (counted in Objects and Bytes).
func (e *hardEnv) oneLog(t *testing.T, kind harden.Kind, obj arena.Addr, size uint64, pinned bool) harden.Report {
	t.Helper()
	c := e.m.CPU(0)
	if len(e.reports) != 1 {
		t.Fatalf("OnReport saw %d reports, want 1: %v", len(e.reports), e.reports)
	}
	rep := e.reports[0]
	if rep.Kind != kind || rep.Addr != uint64(obj) || rep.Cache != "test:hard" || rep.Size != size {
		t.Errorf("report = %v at %#x in %q (size %d), want %v at %#x in test:hard (size %d)",
			rep.Kind, rep.Addr, rep.Cache, rep.Size, kind, uint64(obj), size)
	}
	if reps := e.a.HardenReports(c); len(reps) != 1 || reps[0].String() != rep.String() {
		t.Errorf("HardenReports = %v, want the one OnReport saw", reps)
	}
	q := e.a.Stats(c).Quarantine
	byKind := map[harden.Kind]uint64{
		harden.KindOverrun:      q.Overruns,
		harden.KindDoubleFree:   q.DoubleFrees,
		harden.KindUseAfterFree: q.UseAfterFrees,
	}
	if q.Detections != 1 || byKind[kind] != 1 {
		t.Errorf("Stats.Quarantine = %+v, want one %v", q, kind)
	}
	var objects, bytes uint64
	if pinned {
		objects, bytes = 1, size
	}
	if q.Objects != objects || q.Bytes != bytes || q.Pages != 0 {
		t.Errorf("Stats.Quarantine objects %d bytes %d pages %d, want %d/%d/0", q.Objects, q.Bytes, q.Pages, objects, bytes)
	}
	if n := e.events.Count(core.EvCorruption); n != 1 {
		t.Errorf("spine saw %d EvCorruption, want 1", n)
	}
	return rep
}

// TestCacheHardenOverrun writes past the object and asserts Put detects
// the smashed canary, quarantines the object (pinned, never served
// again), and the cache keeps working.
func TestCacheHardenOverrun(t *testing.T) {
	const size = 96
	e := newHardenCache(t, size, &harden.Config{}, patternCtor(size), nil)
	c, k := e.m.CPU(0), e.k

	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	e.m.Mem().Fill(obj+size, 1, 0x41) // one byte past the object
	k.Put(c, obj)

	rep := e.oneLog(t, harden.KindOverrun, obj, size, true)
	if rep.Offset != size || rep.Got != 0x41 || rep.Expected != harden.CanaryByte {
		t.Errorf("report bytes = offset %d got %#x expected %#x", rep.Offset, rep.Got, rep.Expected)
	}
	// The quarantined object is pinned live and never handed out again.
	for i := 0; i < 50; i++ {
		nb, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		if nb == obj {
			t.Fatalf("cache served quarantined object %#x", uint64(obj))
		}
		k.Put(c, nb)
	}
	if live := k.Destroy(c); live != 1 {
		t.Errorf("Destroy reported %d live, want 1 (the pinned object)", live)
	}
}

// TestCacheHardenDoublePut puts the same object twice; the second Put
// must be detected and swallowed without corrupting the magazines.
func TestCacheHardenDoublePut(t *testing.T) {
	const size = 64
	e := newHardenCache(t, size, &harden.Config{}, patternCtor(size), nil)
	c, k := e.m.CPU(0), e.k

	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	k.Put(c, obj)
	k.Put(c, obj)

	e.oneLog(t, harden.KindDoubleFree, obj, size, false)
	// Only one instance of obj circulates: two Gets must return obj at
	// most once.
	a, _ := k.Get(c)
	b, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("double put duplicated object %#x in the magazines", uint64(a))
	}
	if st := k.Stats(); st.Puts != 1 {
		t.Errorf("puts = %d, want 1 (the swallowed put must not count)", st.Puts)
	}
}

// TestCacheHardenUseAfterFree writes through a stale pointer while the
// object rests poisoned in a magazine; the next Get of it must detect
// the flip, quarantine it, and serve another object.
func TestCacheHardenUseAfterFree(t *testing.T) {
	const size = 96
	e := newHardenCache(t, size, &harden.Config{}, patternCtor(size), nil)
	c, k := e.m.CPU(0), e.k

	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	k.Put(c, obj)                  // destructed + poisoned at rest
	e.m.Mem().Fill(obj+8, 1, 0x77) // late write through the stale pointer

	nb, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	if nb == obj {
		t.Fatalf("cache served the corrupted object %#x", uint64(obj))
	}
	rep := e.oneLog(t, harden.KindUseAfterFree, obj, size, true)
	if rep.Offset != 8 || rep.Expected != harden.PoisonByte {
		t.Errorf("report offset %d expected %#x, want 8/%#x", rep.Offset, rep.Expected, harden.PoisonByte)
	}
	// The served object is fully constructed despite having been
	// poisoned at rest.
	checkConstructed(t, e.m.Mem(), nb, size)
	if live := k.Destroy(c); live != 2 {
		t.Errorf("Destroy reported %d live, want 2 (the held and the pinned object)", live)
	}
}

// TestCacheHardenPoisonModeReconstructs verifies the documented poison
// trade-off: every warm Get re-runs the constructor (no ctor skips),
// and the object always arrives constructed.
func TestCacheHardenPoisonModeReconstructs(t *testing.T) {
	const size = 80
	e := newHardenCache(t, size, &harden.Config{}, patternCtor(size), nil)
	c, k := e.m.CPU(0), e.k
	for i := 0; i < 20; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		checkConstructed(t, e.m.Mem(), obj, size)
		if off, ok := e.m.Mem().CheckFill(obj+size, harden.DefaultRedzone, harden.CanaryByte); !ok {
			t.Fatalf("no canary after the object (byte %d)", off)
		}
		k.Put(c, obj)
		if off, ok := e.m.Mem().CheckFill(obj, size, harden.PoisonByte); !ok {
			t.Fatalf("object not poisoned at rest (byte %d)", off)
		}
	}
	st := k.Stats()
	if st.CtorSkips != 0 {
		t.Errorf("poison mode skipped %d ctors; poisoned objects must be reconstructed", st.CtorSkips)
	}
	if st.CtorRuns != 20 {
		t.Errorf("ctor runs = %d, want 20 (1 carve + 19 warm gets)", st.CtorRuns)
	}
	if st.DtorRuns != 20 {
		t.Errorf("dtor runs = %d, want 20 (each put destructs)", st.DtorRuns)
	}
	if len(e.reports) != 0 {
		t.Errorf("clean cycling filed %d reports", len(e.reports))
	}
}

// TestCacheHardenPanicPolicy asserts PolicyPanic aborts with the report.
func TestCacheHardenPanicPolicy(t *testing.T) {
	const size = 64
	e := newHardenCache(t, size, &harden.Config{Policy: harden.PolicyPanic}, nil, nil)
	c, k := e.m.CPU(0), e.k
	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	e.m.Mem().Fill(obj+size, 1, 0x41)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overrun under PolicyPanic did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "overrun") {
			t.Errorf("panic value %v does not carry the report", r)
		}
		e.oneLog(t, harden.KindOverrun, obj, size, false)
	}()
	k.Put(c, obj)
}

// TestCacheHardenLogPolicy: under PolicyLog an overrun is reported once
// and the object keeps circulating with its canary healed, so the next
// Put of it is clean.
func TestCacheHardenLogPolicy(t *testing.T) {
	const size = 64
	e := newHardenCache(t, size, &harden.Config{Policy: harden.PolicyLog}, patternCtor(size), nil)
	c, k := e.m.CPU(0), e.k
	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	e.m.Mem().Fill(obj+size, 1, 0x41)
	k.Put(c, obj)
	if again, _ := k.Get(c); again != obj {
		t.Fatalf("log policy did not keep %#x circulating (got %#x)", uint64(obj), uint64(again))
	}
	k.Put(c, obj)
	e.oneLog(t, harden.KindOverrun, obj, size, false)
}

// TestCacheHardenAuditSweep: the allocator's audit sweep covers a
// hardened cache's objects like its blocks and spans. Under PolicyLog a
// late write into a resting object's poison and a smashed canary after a
// live object are each reported once, by the sweep, and healed there: a
// second sweep, the resting object's next Get and the live object's Put
// find nothing more.
func TestCacheHardenAuditSweep(t *testing.T) {
	const size = 64
	e := newHardenCache(t, size, &harden.Config{Policy: harden.PolicyLog}, patternCtor(size), nil)
	c, k := e.m.CPU(0), e.k
	resting, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	live, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	k.Put(c, resting)
	e.m.Mem().Fill(resting+8, 1, 0x77) // a late write through a stale pointer
	e.m.Mem().Fill(live+size, 1, 0x41) // one byte past the live object

	reps := e.a.AuditSweep(c)
	if len(reps) != 2 {
		t.Fatalf("sweep filed %d reports, want 2: %v", len(reps), reps)
	}
	want := map[arena.Addr]harden.Kind{resting: harden.KindUseAfterFree, live: harden.KindOverrun}
	for _, rep := range reps {
		if want[arena.Addr(rep.Addr)] != rep.Kind || rep.Cache != "test:hard" || rep.Size != size {
			t.Errorf("sweep report %v at %#x in %q (size %d), want %v", rep.Kind, rep.Addr, rep.Cache, rep.Size, want[arena.Addr(rep.Addr)])
		}
	}
	if again := e.a.AuditSweep(c); len(again) != 0 {
		t.Errorf("second sweep re-reported %v", again)
	}
	if obj, _ := k.Get(c); obj != resting {
		t.Fatalf("log policy did not keep %#x circulating (got %#x)", uint64(resting), uint64(obj))
	}
	k.Put(c, live)
	k.Put(c, resting)
	if q := e.a.Stats(c).Quarantine; q.Detections != 2 || q.Objects != 0 {
		t.Errorf("Stats.Quarantine = %+v, want the two sweep findings, nothing pinned", q)
	}
}

// TestCacheHardenPinnedStaysCarved writes into a resting object's
// poison and drains the cache, with and without the audit sweep the
// reclaim path runs first. Whichever check meets the write reports it,
// once. Under PolicyQuarantine the object is pinned: it stays carved
// through the drain and its cache's destruction, its backing block is
// never served again, and Stats.Quarantine counts exactly it. Under
// PolicyLog the write is healed and the object released.
func TestCacheHardenPinnedStaysCarved(t *testing.T) {
	const size = 64
	for _, pol := range []harden.Policy{harden.PolicyQuarantine, harden.PolicyLog} {
		for _, sweep := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/sweep=%v", pol, sweep), func(t *testing.T) {
				e := newHardenCache(t, size, &harden.Config{Policy: pol}, patternCtor(size), nil)
				c, k := e.m.CPU(0), e.k
				obj, err := k.Get(c)
				if err != nil {
					t.Fatal(err)
				}
				k.Put(c, obj)
				e.m.Mem().Fill(obj+8, 1, 0x77) // a late write into the resting object
				if sweep {
					if reps := e.a.AuditSweep(c); len(reps) != 1 {
						t.Fatalf("sweep filed %d reports, want 1: %v", len(reps), reps)
					}
				}
				e.a.DrainAll(c)
				pinned := pol == harden.PolicyQuarantine
				e.oneLog(t, harden.KindUseAfterFree, obj, size, pinned)
				var want uint64
				if pinned {
					want = 1
				}
				if q := e.a.Stats(c).Quarantine; q.Pinned != want {
					t.Errorf("Stats.Quarantine.Pinned = %d, want %d", q.Pinned, want)
				}
				if st := k.Stats(); st.Live != want || st.Releases+want != st.Carves {
					t.Errorf("after drain: live %d, carves %d, releases %d; want %d live", st.Live, st.Carves, st.Releases, want)
				}

				// Carve afresh: no object may share a backing block with
				// another, the pinned one included.
				var held []arena.Addr
				for i := 0; i < 64; i++ {
					nb, err := k.Get(c)
					if err != nil {
						t.Fatal(err)
					}
					held = append(held, nb)
				}
				bases := map[arena.Addr]arena.Addr{}
				found := false
				k.ForEachCarved(func(o, base arena.Addr) {
					if prev, ok := bases[base]; ok {
						t.Errorf("objects %#x and %#x share backing block %#x", uint64(prev), uint64(o), uint64(base))
					}
					bases[base] = o
					found = found || o == obj
				})
				if found != pinned {
					t.Errorf("object %#x carved = %v after drain, want %v", uint64(obj), found, pinned)
				}
				for _, nb := range held {
					k.Put(c, nb)
				}
				if again := e.a.AuditSweep(c); len(again) != 0 {
					t.Errorf("a later sweep re-reported %v", again)
				}
				if live := k.Destroy(c); uint64(live) != want {
					t.Errorf("Destroy reported %d live, want %d", live, want)
				}
				if len(e.reports) != 1 {
					t.Errorf("%d reports in all, want 1", len(e.reports))
				}
				if err := e.a.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCacheHardenReleaseClean verifies hardened objects flow back to the
// backing allocator cleanly under Drain — no double destruction, no
// release of quarantined objects.
func TestCacheHardenReleaseClean(t *testing.T) {
	const size = 96
	var dtors int
	dtor := func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) { dtors++ }
	e := newHardenCache(t, size, &harden.Config{}, patternCtor(size), dtor)
	c, k := e.m.CPU(0), e.k

	var objs []arena.Addr
	for i := 0; i < 30; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	for _, obj := range objs {
		k.Put(c, obj)
	}
	k.Drain(c)
	st := k.Stats()
	if st.Live != 0 {
		t.Errorf("live = %d after drain, want 0", st.Live)
	}
	if int(st.DtorRuns) != dtors {
		t.Errorf("dtor counter %d != dtor calls %d", st.DtorRuns, dtors)
	}
	if dtors != 30 {
		t.Errorf("dtor ran %d times for 30 puts in poison mode, want 30", dtors)
	}
	if st.Releases != 30 {
		t.Errorf("releases = %d, want 30", st.Releases)
	}
	if q := e.a.Stats(c).Quarantine; q.Detections != 0 {
		t.Errorf("clean drain: %+v", q)
	}
	if err := e.a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheOverUnhardenedAllocator: a cache over an unhardened allocator
// lays no canary, leaves resting objects constructed rather than
// poisoned, skips the ctor on every warm Get, and reports nothing.
func TestCacheOverUnhardenedAllocator(t *testing.T) {
	const size = 96
	m, a, kma := newKMA(t, 1)
	k, err := objcache.New(m, kma, "test:plain", size, 8, patternCtor(size), nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < harden.DefaultRedzone; i++ {
		if b := m.Mem().Bytes(obj+arena.Addr(size+i), 1)[0]; b == harden.CanaryByte {
			t.Fatalf("canary byte at object+%d", size+i)
		}
	}
	m.Mem().Fill(obj+size, 1, 0x41) // no canary to smash
	for i := 0; i < 10; i++ {
		k.Put(c, obj)
		checkConstructed(t, m.Mem(), obj, size)
		if obj, err = k.Get(c); err != nil {
			t.Fatal(err)
		}
	}
	k.Put(c, obj)
	if st := k.Stats(); st.CtorRuns != 1 || st.CtorSkips != 10 || st.DtorRuns != 0 {
		t.Errorf("ctor runs %d, skips %d, dtor runs %d; want 1/10/0", st.CtorRuns, st.CtorSkips, st.DtorRuns)
	}
	if reps := a.HardenReports(c); reps != nil {
		t.Errorf("unhardened allocator filed %v", reps)
	}
}

// TestCacheHardenNativeConcurrent runs a hardened cache on real
// goroutines, one per CPU handle, with drains interfering: the objects'
// owner slots in the allocator are shared state, and a clean run files
// no report, leaves ctors == dtors and releases every carve.
func TestCacheHardenNativeConcurrent(t *testing.T) {
	const size = 72
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 4
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	a, err := core.New(m, core.Params{Harden: &harden.Config{Policy: harden.PolicyPanic}})
	if err != nil {
		t.Fatal(err)
	}
	k, err := objcache.New(m, allocif.NewKMA{Allocator: a}, "test:native", size, 8, patternCtor(size), nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < m.NumCPUs(); i++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			held := make([]arena.Addr, 0, 24)
			for op := 0; op < 2000; op++ {
				if len(held) < 24 && (op/24)%2 == 0 {
					obj, err := k.Get(c)
					if err != nil {
						t.Errorf("cpu %d: get: %v", c.ID(), err)
						return
					}
					if off, ok := m.Mem().CheckFill(obj, size, testPattern); !ok {
						t.Errorf("cpu %d: object %#x unconstructed at byte %d", c.ID(), uint64(obj), off)
					}
					held = append(held, obj)
				} else if len(held) > 0 {
					k.Put(c, held[len(held)-1])
					held = held[:len(held)-1]
				}
				if c.ID() == 0 && op%500 == 0 {
					k.Drain(c)
				}
			}
			for _, obj := range held {
				k.Put(c, obj)
			}
		}(m.CPU(i))
	}
	wg.Wait()
	c := m.CPU(0)
	k.Drain(c)
	st := k.Stats()
	if st.Live != 0 || st.Releases != st.Carves || st.CtorRuns != st.DtorRuns {
		t.Errorf("stats %+v: want live 0, releases == carves, ctors == dtors", st)
	}
	if reps := a.HardenReports(c); len(reps) != 0 {
		t.Errorf("clean concurrent run filed %d reports: %v", len(reps), reps[0].String())
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
