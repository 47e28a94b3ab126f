package kmem

import (
	"testing"
)

// TestNamedCaches exercises the kmem_cache_create-shaped facade:
// creation, name registry, duplicate rejection, lookup, destroy.
func TestNamedCaches(t *testing.T) {
	s := newSys(t, Config{CPUs: 2})
	c := s.CPU(0)

	k, err := s.NewCache("msgblock", 128, 8, nil, nil, CacheOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewCache("msgblock", 64, 8, nil, nil, CacheOpts{}); err == nil {
		t.Fatal("duplicate cache name accepted")
	}
	if _, err := s.NewCache("lockblock", 64, 8, nil, nil, CacheOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Caches(); len(got) != 2 || got[0] != "lockblock" || got[1] != "msgblock" {
		t.Fatalf("Caches() = %v, want [lockblock msgblock]", got)
	}
	if s.Cache("msgblock") != k {
		t.Fatal("Cache lookup did not return the registered cache")
	}

	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	k.Put(c, obj)

	if live := s.DestroyCache(c, "msgblock"); live != 0 {
		t.Fatalf("DestroyCache = %d live, want 0", live)
	}
	if s.Cache("msgblock") != nil {
		t.Fatal("destroyed cache still registered")
	}
	if live := s.DestroyCache(c, "msgblock"); live != -1 {
		t.Fatalf("double DestroyCache = %d, want -1", live)
	}
	// The freed name is reusable.
	if _, err := s.NewCache("msgblock", 256, 8, nil, nil, CacheOpts{}); err != nil {
		t.Fatal(err)
	}
}

// TestSystemHarden drives the hardening layer through the facade: a
// planted overrun is detected, reported, quarantined, and visible in
// Stats and HardenReports; the system keeps serving.
func TestSystemHarden(t *testing.T) {
	var got []CorruptionReport
	s := newSys(t, Config{CPUs: 1, Harden: &HardenConfig{
		OnReport: func(r CorruptionReport) { got = append(got, r) },
	}})
	c := s.CPU(0)

	s.SetHardenSite(c, "facade-test")
	b, err := s.Alloc(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	usable := s.Allocator().RoundedSize(100)
	s.Bytes(b, usable+1)[usable] = 0x5a // one byte past the usable capacity
	s.Free(c, b, 100)

	if len(got) != 1 || got[0].Kind != KindOverrun {
		t.Fatalf("reports = %v, want one overrun", got)
	}
	if got[0].LastAlloc.Site != "facade-test" {
		t.Errorf("provenance site = %q, want facade-test", got[0].LastAlloc.Site)
	}
	if reps := s.HardenReports(c); len(reps) != 1 {
		t.Fatalf("HardenReports = %d entries, want 1", len(reps))
	}
	st := s.Stats(c)
	if st.Quarantine.Detections != 1 || st.Quarantine.Pages != 1 {
		t.Fatalf("Stats.Quarantine = %+v, want 1 detection, 1 page", st.Quarantine)
	}
	if reps := s.AuditSweep(c); len(reps) != 0 {
		t.Fatalf("audit sweep re-reported: %v", reps)
	}
	// Still serving.
	nb, err := s.Alloc(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.Free(c, nb, 100)
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSystemHardenedCache runs a named cache of a hardened System end to
// end through the facade: the cache inherits the hardening, and its
// detection lands once in the System's one log.
func TestSystemHardenedCache(t *testing.T) {
	var got []CorruptionReport
	s := newSys(t, Config{CPUs: 1, Harden: &HardenConfig{
		OnReport: func(r CorruptionReport) { got = append(got, r) },
	}})
	c := s.CPU(0)
	k, err := s.NewCache("hardened", 96, 8, nil, nil, CacheOpts{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	s.Bytes(obj, 97)[96] = 0x5a // smash the canary
	k.Put(c, obj)
	if len(got) != 1 || got[0].Kind != KindOverrun || got[0].Cache != "hardened" {
		t.Fatalf("reports = %v, want one overrun in %q", got, "hardened")
	}
	if reps := s.HardenReports(c); len(reps) != 1 || reps[0].Cache != "hardened" {
		t.Fatalf("HardenReports = %v, want the one overrun", reps)
	}
	if q := s.Stats(c).Quarantine; q.Detections != 1 || q.Overruns != 1 || q.Objects != 1 || q.Bytes != 96 {
		t.Fatalf("Stats.Quarantine = %+v, want one overrun pinning one 96-byte object", q)
	}
	if live := s.DestroyCache(c, "hardened"); live != 1 {
		t.Fatalf("DestroyCache = %d live, want 1 (the quarantined object)", live)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
