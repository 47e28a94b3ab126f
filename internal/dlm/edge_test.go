package dlm

import (
	"errors"
	"testing"

	"kmem/internal/core"
	"kmem/internal/machine"
)

// Edge cases: invalid modes, denied conversions, allocator exhaustion
// inside the lock manager, and hash-chain behaviour.

func TestBadModeDenied(t *testing.T) {
	cl, _, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	mgr := cl.Manager()
	if _, st, err := mgr.Lock(c, 1, Mode(99), 0); st != Denied || err == nil {
		t.Fatalf("bad mode: %v %v", st, err)
	}
	h, _, _ := mgr.Lock(c, 1, CR, 0)
	if st, _ := mgr.Convert(c, h, Mode(99), nil); st != Denied {
		t.Fatalf("bad convert mode: %v", st)
	}
	mgr.Unlock(c, h, nil)
}

func TestConvertWaitingLockDenied(t *testing.T) {
	cl, _, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	mgr := cl.Manager()
	hEx, _, _ := mgr.Lock(c, 2, EX, 0)
	hW, st, _ := mgr.Lock(c, 2, EX, 1)
	if st != Waiting {
		t.Fatal("setup")
	}
	// Converting a lock that is not granted is refused.
	if st, _ := mgr.Convert(c, hW, CR, nil); st != Denied {
		t.Fatalf("convert of waiting lock: %v", st)
	}
	mgr.Unlock(c, hEx, nil)
	mgr.Unlock(c, hW, nil)
}

func TestNoOpConversionSameMode(t *testing.T) {
	cl, _, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	mgr := cl.Manager()
	h, _, _ := mgr.Lock(c, 3, PR, 0)
	st, _ := mgr.Convert(c, h, PR, nil)
	if st != Granted {
		t.Fatalf("same-mode conversion: %v", st)
	}
	mgr.Unlock(c, h, nil)
}

func TestHashChainCollisions(t *testing.T) {
	// A one-bucket manager forces every resource onto one chain;
	// create/find/unlink must all still work.
	cfg := machine.DefaultConfig()
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 2048
	m := machine.New(cfg)
	al, err := core.New(m, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(al, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	var hs []uint64
	for i := 0; i < 50; i++ {
		h, st, err := mgr.Lock(c, uint64(i), EX, 0)
		if err != nil || st != Granted {
			t.Fatalf("lock %d: %v %v", i, st, err)
		}
		hs = append(hs, uint64(h))
	}
	// Unlock out of order to exercise mid-chain unlinking.
	for i := len(hs) - 1; i >= 0; i -= 2 {
		mgr.Unlock(c, hs[i], nil)
	}
	for i := 0; i < len(hs); i += 2 {
		mgr.Unlock(c, hs[i], nil)
	}
	if s := mgr.Stats(); s.ResCreated != 50 || s.ResFreed != 50 {
		t.Fatalf("resources: %+v", s)
	}
	al.DrainAll(c)
	if err := al.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLockUnderMemoryExhaustion(t *testing.T) {
	// A lock manager on a starved allocator must degrade to Denied, not
	// panic, and must not leak what it did manage to allocate.
	cfg := machine.DefaultConfig()
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 10 // 8 header pages + 2 data pages
	m := machine.New(cfg)
	al, err := core.New(m, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(al, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	var held []uint64
	denied := 0
	for i := 0; i < 200; i++ {
		h, st, err := mgr.Lock(c, uint64(i), EX, 0)
		switch {
		case err != nil:
			if !errors.Is(err, core.ErrNoMemory) {
				t.Fatalf("unexpected error: %v", err)
			}
			denied++
		case st == Granted:
			held = append(held, uint64(h))
		}
	}
	if denied == 0 {
		t.Fatal("starved allocator never denied a lock")
	}
	if len(held) == 0 {
		t.Fatal("nothing granted before exhaustion")
	}
	for _, h := range held {
		mgr.Unlock(c, h, nil)
	}
	al.DrainAll(c)
	if err := al.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestGrantedAccessors(t *testing.T) {
	cl, _, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	mgr := cl.Manager()
	h1, _, _ := mgr.Lock(c, 7, PW, 0)
	h2, st, _ := mgr.Lock(c, 7, EX, 1)
	if st != Waiting {
		t.Fatal("setup")
	}
	if !mgr.Granted(c, h1) || mgr.Granted(c, h2) {
		t.Fatal("Granted() wrong")
	}
	if mgr.HeldMode(c, h1) != PW {
		t.Fatalf("mode %v", mgr.HeldMode(c, h1))
	}
	mgr.Unlock(c, h1, nil)
	mgr.Unlock(c, h2, nil)
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{NL: "NL", CR: "CR", CW: "CW", PR: "PR", PW: "PW", EX: "EX", Mode(42): "??"} {
		if m.String() != want {
			t.Errorf("%d.String() = %s", m, m.String())
		}
	}
	for s, want := range map[Status]string{Granted: "granted", Waiting: "waiting", Denied: "denied", Status(9): "??"} {
		if s.String() != want {
			t.Errorf("Status(%d) = %s", s, s.String())
		}
	}
}
