package objcache_test

import (
	"strings"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/harden"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

func newHardenCache(t *testing.T, size uint64, hcfg *harden.Config, ctor objcache.Ctor, dtor objcache.Dtor) (*machine.Machine, *objcache.Cache, *[]harden.Report) {
	t.Helper()
	var reports []harden.Report
	hcfg.OnReport = func(r harden.Report) { reports = append(reports, r) }
	m, _, kma := newKMA(t, 1)
	k, err := objcache.New(m, kma, "test:hard", size, 8, ctor, dtor, objcache.Opts{Harden: hcfg})
	if err != nil {
		t.Fatal(err)
	}
	return m, k, &reports
}

// TestCacheHardenOverrun writes past the object and asserts Put detects
// the smashed canary, quarantines the object (pinned, never served
// again), and the cache keeps working.
func TestCacheHardenOverrun(t *testing.T) {
	const size = 96
	m, k, reports := newHardenCache(t, size, &harden.Config{}, patternCtor(size), nil)
	c := m.CPU(0)

	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	m.Mem().Fill(obj+size, 1, 0x41) // one byte past the object
	k.Put(c, obj)

	if len(*reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(*reports))
	}
	rep := (*reports)[0]
	if rep.Kind != harden.KindOverrun || rep.Addr != uint64(obj) {
		t.Errorf("report = %v at %#x, want overrun at %#x", rep.Kind, rep.Addr, uint64(obj))
	}
	if rep.Cache != "test:hard" {
		t.Errorf("report cache = %q, want test:hard", rep.Cache)
	}
	if rep.Offset != size || rep.Got != 0x41 || rep.Expected != harden.CanaryByte {
		t.Errorf("report bytes = offset %d got %#x expected %#x", rep.Offset, rep.Got, rep.Expected)
	}
	st := k.Stats()
	if st.Detections != 1 || st.Quarantined != 1 {
		t.Errorf("stats = %d detections %d quarantined, want 1/1", st.Detections, st.Quarantined)
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
	m, k, reports := newHardenCache(t, size, &harden.Config{}, patternCtor(size), nil)
	c := m.CPU(0)

	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	k.Put(c, obj)
	k.Put(c, obj)

	if len(*reports) != 1 || (*reports)[0].Kind != harden.KindDoubleFree {
		t.Fatalf("reports = %v, want one double put", *reports)
	}
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
	m, k, reports := newHardenCache(t, size, &harden.Config{}, patternCtor(size), nil)
	c := m.CPU(0)

	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	k.Put(c, obj)                // destructed + poisoned at rest
	m.Mem().Fill(obj+8, 1, 0x77) // late write through the stale pointer

	nb, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	if nb == obj {
		t.Fatalf("cache served the corrupted object %#x", uint64(obj))
	}
	if len(*reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(*reports))
	}
	rep := (*reports)[0]
	if rep.Kind != harden.KindUseAfterFree || rep.Addr != uint64(obj) || rep.Offset != 8 {
		t.Errorf("report = %v at %#x+%d, want use-after-free at %#x+8",
			rep.Kind, rep.Addr, rep.Offset, uint64(obj))
	}
	// The served object is fully constructed despite having been
	// poisoned at rest.
	checkConstructed(t, m.Mem(), nb, size)
}

// TestCacheHardenPoisonModeReconstructs verifies the documented poison
// trade-off: every warm Get re-runs the constructor (no ctor skips),
// and the object always arrives constructed.
func TestCacheHardenPoisonModeReconstructs(t *testing.T) {
	const size = 80
	m, k, _ := newHardenCache(t, size, &harden.Config{}, patternCtor(size), nil)
	c := m.CPU(0)
	for i := 0; i < 20; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		checkConstructed(t, m.Mem(), obj, size)
		k.Put(c, obj)
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
}

// TestCacheHardenPanicPolicy asserts PolicyPanic aborts with the report.
func TestCacheHardenPanicPolicy(t *testing.T) {
	const size = 64
	m, k, _ := newHardenCache(t, size, &harden.Config{Policy: harden.PolicyPanic}, nil, nil)
	c := m.CPU(0)
	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	m.Mem().Fill(obj+size, 1, 0x41)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overrun under PolicyPanic did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "overrun") {
			t.Errorf("panic value %v does not carry the report", r)
		}
	}()
	k.Put(c, obj)
}

// TestCacheHardenReleaseClean verifies hardened objects flow back to the
// backing allocator cleanly under Drain — no double destruction, no
// release of quarantined objects.
func TestCacheHardenReleaseClean(t *testing.T) {
	const size = 96
	var dtors int
	dtor := func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) { dtors++ }
	m, k, _ := newHardenCache(t, size, &harden.Config{}, patternCtor(size), dtor)
	c := m.CPU(0)

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
}
