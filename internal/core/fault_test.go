package core

import (
	"errors"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/faultpoint"
	"kmem/internal/machine"
)

// faultAllocator builds a Sim allocator with an armed fault set. Plenty
// of physical memory: these tests exercise injected failures, not real
// exhaustion.
func faultAllocator(t *testing.T, fs *faultpoint.Set) (*Allocator, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 4096
	m := machine.New(cfg)
	a, err := New(m, Params{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func TestFaultVmblkCarveFailsTyped(t *testing.T) {
	// With vmblk carving failing unconditionally, the very first small
	// allocation cannot create address space: the error must be the typed
	// ErrNoVA (address-space exhaustion, not frame shortage), and no
	// physical pages may leak from the aborted attempt.
	fs := faultpoint.New(1)
	fs.Arm(FaultVmblkCarve, faultpoint.Spec{}) // fire every time
	a, m := faultAllocator(t, fs)
	c := m.CPU(0)

	_, err := a.Alloc(c, 64)
	if !errors.Is(err, ErrNoVA) {
		t.Fatalf("Alloc under carve fault = %v, want ErrNoVA", err)
	}
	if got := a.Stats(c).Pressure.FaultsInjected; got == 0 {
		t.Fatal("no injected faults recorded")
	}
	if mapped := m.Phys().Mapped(); mapped != 0 {
		t.Fatalf("%d pages leaked by failed carve", mapped)
	}

	fs.Disarm(FaultVmblkCarve)
	b, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatalf("Alloc after disarm: %v", err)
	}
	a.Free(c, b, 64)
	a.DrainAll(c)
	checkOK(t, a)
}

func TestFaultPhysMapRecoversViaRetry(t *testing.T) {
	// One injected map failure: the header mapping of the first vmblk is
	// vetoed, the partial carve unwinds, and the allocator's reclaim+retry
	// path succeeds on the second attempt without caller-visible error.
	fs := faultpoint.New(1)
	fs.Arm(FaultPhysMap, faultpoint.Spec{Count: 1})
	a, m := faultAllocator(t, fs)
	c := m.CPU(0)

	b, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatalf("Alloc did not recover from one map fault: %v", err)
	}
	st := a.Stats(c)
	if st.Pressure.FaultsInjected != 1 {
		t.Fatalf("faults injected = %d, want 1", st.Pressure.FaultsInjected)
	}
	if st.Phys.Failures == 0 {
		t.Fatal("physmem recorded no map failure")
	}
	if st.VM.MapFailures == 0 {
		t.Fatal("vmblk layer recorded no map failure")
	}
	a.Free(c, b, 64)
	a.DrainAll(c)
	checkOK(t, a)
	if mapped := m.Phys().Mapped(); mapped != 8 {
		t.Fatalf("mapped = %d after drain, want 8 header pages", mapped)
	}
}

func TestFaultPagePoolRefillFailsTyped(t *testing.T) {
	// Page-pool refill failing unconditionally starves the small-block
	// path before any page is carved: the caller sees ErrNoMemory and the
	// machine maps nothing.
	fs := faultpoint.New(1)
	fs.Arm(FaultPagePoolRefill, faultpoint.Spec{})
	a, m := faultAllocator(t, fs)
	c := m.CPU(0)

	_, err := a.Alloc(c, 64)
	if !errors.Is(err, ErrNoMemory) {
		t.Fatalf("Alloc under refill fault = %v, want ErrNoMemory", err)
	}
	if errors.Is(err, ErrNoVA) {
		t.Fatal("refill fault misreported as address-space exhaustion")
	}
	if mapped := m.Phys().Mapped(); mapped != 0 {
		t.Fatalf("%d pages mapped by failed refills", mapped)
	}

	fs.Disarm(FaultPagePoolRefill)
	b, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatalf("Alloc after disarm: %v", err)
	}
	a.Free(c, b, 64)
	a.DrainAll(c)
	checkOK(t, a)
}

// lazyFaultAllocator mirrors faultAllocator with lazy spans on — the
// mode where FaultPhysMap fires on data-page commits at carve and
// recommit time, not just on the header mapping.
func lazyFaultAllocator(t *testing.T, fs *faultpoint.Set) (*Allocator, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 4096
	m := machine.New(cfg)
	a, err := New(m, Params{LazySpans: true, Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func TestFaultPhysCommitRecoversViaRetry(t *testing.T) {
	// One injected commit failure under lazy spans: the header commit of
	// the first vmblk is vetoed, the carve unwinds (releasing the fresh
	// reservation), and the reclaim+retry path succeeds on the second
	// attempt without a caller-visible error.
	fs := faultpoint.New(1)
	fs.Arm(FaultPhysMap, faultpoint.Spec{Count: 1})
	a, m := lazyFaultAllocator(t, fs)
	c := m.CPU(0)

	b, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatalf("Alloc did not recover from one commit fault: %v", err)
	}
	st := a.Stats(c)
	if st.Pressure.FaultsInjected != 1 {
		t.Fatalf("faults injected = %d, want 1", st.Pressure.FaultsInjected)
	}
	if st.VM.MapFailures == 0 {
		t.Fatal("vmblk layer recorded no commit failure")
	}
	a.Free(c, b, 64)
	a.DrainAll(c)
	checkOK(t, a)
	if got := m.Phys().Mapped(); got != a.HeaderPages() {
		t.Fatalf("mapped = %d after drain, want header floor %d", got, a.HeaderPages())
	}
}

func TestFaultPhysCommitDuringTrimUnwind(t *testing.T) {
	// Allocation during decommit-in-progress: lazy spans, probabilistic
	// commit faults, and periodic trims stripping backing from free spans,
	// so allocations constantly recommit scrubbed pages while decommit is
	// in flight. Every injected failure must surface as a typed error or
	// be absorbed by the decommit-fallback retry; after disarm and full
	// release the allocator is consistent and holds only vmblk headers.
	fs := faultpoint.New(7)
	fs.Arm(FaultPhysMap, faultpoint.Spec{Prob: 0.3})
	a, m := lazyFaultAllocator(t, fs)
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes

	type held struct {
		addr arena.Addr
		size uint64
	}
	var live []held
	sizes := []uint64{16, 64, 256, 4096, 2 * pageBytes, 5 * pageBytes}
	var failures int
	for i := 0; i < 400; i++ {
		if i%16 == 0 {
			a.Trim(c, 32)
		}
		sz := sizes[i%len(sizes)]
		b, err := a.Alloc(c, sz)
		if err != nil {
			if !errors.Is(err, ErrNoMemory) && !errors.Is(err, ErrNoVA) {
				t.Fatalf("iteration %d: untyped error %v", i, err)
			}
			failures++
			continue
		}
		live = append(live, held{b, sz})
		if len(live) > 40 {
			h := live[0]
			live = live[1:]
			a.Free(c, h.addr, h.size)
		}
	}
	fired := fs.Fired()
	if fired == 0 {
		t.Fatal("commit fault never fired")
	}

	fs.Disarm(FaultPhysMap)
	for _, h := range live {
		a.Free(c, h.addr, h.size)
	}
	a.DrainAll(c)
	checkOK(t, a)
	if got := m.Phys().Mapped(); got != a.HeaderPages() {
		t.Fatalf("mapped = %d after full release, want header floor %d", got, a.HeaderPages())
	}
	if st := a.Stats(c); st.Pressure.FaultsInjected != fired {
		t.Fatalf("allocator counted %d faults, set fired %d",
			st.Pressure.FaultsInjected, fired)
	}
}

func TestFaultMidAllocationUnwind(t *testing.T) {
	// Probabilistic map faults under a mixed small/large workload:
	// whatever fails mid-allocation must unwind completely. After freeing
	// every successful allocation the allocator passes its full
	// consistency check and holds exactly the vmblk header pages — any
	// page leaked by a half-done carve or span allocation shows up here.
	fs := faultpoint.New(42)
	fs.Arm(FaultPhysMap, faultpoint.Spec{Prob: 0.3})
	a, m := faultAllocator(t, fs)
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes

	type held struct {
		addr arena.Addr
		size uint64
	}
	var live []held
	sizes := []uint64{16, 64, 256, 4096, 2 * pageBytes, 5 * pageBytes}
	var failures int
	for i := 0; i < 400; i++ {
		sz := sizes[i%len(sizes)]
		b, err := a.Alloc(c, sz)
		if err != nil {
			if !errors.Is(err, ErrNoMemory) && !errors.Is(err, ErrNoVA) {
				t.Fatalf("iteration %d: untyped error %v", i, err)
			}
			failures++
			continue
		}
		live = append(live, held{b, sz})
		// Free a stripe as we go so both paths' free sides run too.
		if len(live) > 40 {
			h := live[0]
			live = live[1:]
			a.Free(c, h.addr, h.size)
		}
	}
	fired := fs.Fired() // snapshot: Disarm discards the point's counters
	if failures == 0 || fired == 0 {
		t.Fatalf("fault injection never fired (failures=%d fired=%d)", failures, fired)
	}

	fs.Disarm(FaultPhysMap)
	for _, h := range live {
		a.Free(c, h.addr, h.size)
	}
	a.DrainAll(c)
	checkOK(t, a)
	st := a.Stats(c)
	if got, want := uint64(m.Phys().Mapped()), 8*st.VM.VmblkCreates; got != want {
		t.Fatalf("mapped = %d after full release, want %d (headers of %d vmblks)",
			got, want, st.VM.VmblkCreates)
	}
	if st.Pressure.FaultsInjected != fired {
		t.Fatalf("allocator counted %d faults, set fired %d",
			st.Pressure.FaultsInjected, fired)
	}
}
