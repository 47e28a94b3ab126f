package dlm

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
)

func newTest(t *testing.T, ncpu int, mode machine.Mode) (*Cluster, *core.Allocator, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Mode = mode
	cfg.NumCPUs = ncpu
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 4096
	m := machine.New(cfg)
	al, err := core.New(m, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(al, 64)
	if err != nil {
		t.Fatal(err)
	}
	return cl, al, m
}

func TestCompatibilityMatrix(t *testing.T) {
	// Spot-check the canonical properties.
	if !Compatible(CR, CR) || !Compatible(PR, PR) || Compatible(EX, CR) {
		t.Fatal("matrix wrong on basics")
	}
	for m := NL; m < numModes; m++ {
		if !Compatible(NL, m) || !Compatible(m, NL) {
			t.Fatalf("NL must be compatible with %v", m)
		}
		if m != NL && Compatible(EX, m) {
			t.Fatalf("EX must conflict with %v", m)
		}
	}
	// Symmetry.
	for a := NL; a < numModes; a++ {
		for b := NL; b < numModes; b++ {
			if Compatible(a, b) != Compatible(b, a) {
				t.Fatalf("matrix asymmetric at %v,%v", a, b)
			}
		}
	}
}

func TestLockGrantUnlock(t *testing.T) {
	cl, al, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	mgr := cl.Manager()

	h, st, err := mgr.Lock(c, 42, EX, 0)
	if err != nil || st != Granted {
		t.Fatalf("lock: %v %v", st, err)
	}
	if !mgr.Granted(c, h) || mgr.HeldMode(c, h) != EX {
		t.Fatal("state wrong after grant")
	}
	mgr.Unlock(c, h, nil)
	s := mgr.Stats()
	if s.Locks != 1 || s.Unlocks != 1 || s.ResCreated != 1 || s.ResFreed != 1 {
		t.Fatalf("stats: %+v", s)
	}
	al.DrainAll(c)
	if err := al.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestConflictQueuesThenGrants(t *testing.T) {
	cl, _, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	mgr := cl.Manager()

	hEx, st, _ := mgr.Lock(c, 7, EX, 0)
	if st != Granted {
		t.Fatal("first EX not granted")
	}
	hPr, st, _ := mgr.Lock(c, 7, PR, 1)
	if st != Waiting {
		t.Fatal("conflicting PR should wait")
	}
	hPr2, st, _ := mgr.Lock(c, 7, PR, 2)
	if st != Waiting {
		t.Fatal("second PR should wait")
	}
	grants := mgr.Unlock(c, hEx, nil)
	if len(grants) != 2 {
		t.Fatalf("release granted %d waiters, want 2", len(grants))
	}
	if grants[0].Lock != hPr || grants[0].Owner != 1 {
		t.Fatalf("FIFO violated: %+v", grants[0])
	}
	if !mgr.Granted(c, hPr) || !mgr.Granted(c, hPr2) {
		t.Fatal("waiters not granted")
	}
	mgr.Unlock(c, hPr, nil)
	mgr.Unlock(c, hPr2, nil)
}

func TestFIFOFairnessBlocksCompatibleBehindWaiter(t *testing.T) {
	cl, _, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	mgr := cl.Manager()

	hPr, _, _ := mgr.Lock(c, 9, PR, 0)
	hEx, st, _ := mgr.Lock(c, 9, EX, 1) // conflicts, waits
	if st != Waiting {
		t.Fatal("EX should wait")
	}
	// A PR would be compatible with the granted PR, but must not jump
	// the queued EX.
	hPr2, st, _ := mgr.Lock(c, 9, PR, 2)
	if st != Waiting {
		t.Fatal("PR must queue behind waiting EX")
	}
	grants := mgr.Unlock(c, hPr, nil)
	if len(grants) != 1 || grants[0].Lock != hEx {
		t.Fatalf("EX should be granted first: %+v", grants)
	}
	grants = mgr.Unlock(c, hEx, nil)
	if len(grants) != 1 || grants[0].Lock != hPr2 {
		t.Fatalf("PR2 should follow: %+v", grants)
	}
	mgr.Unlock(c, hPr2, nil)
}

func TestConvertUpAndDown(t *testing.T) {
	cl, _, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	mgr := cl.Manager()

	h1, _, _ := mgr.Lock(c, 5, CR, 0)
	h2, _, _ := mgr.Lock(c, 5, CR, 1)

	// CR -> EX conflicts with the other CR: must wait.
	st, _ := mgr.Convert(c, h1, EX, nil)
	if st != Waiting {
		t.Fatalf("up-conversion: %v", st)
	}
	// Releasing the other CR grants the queued conversion.
	grants := mgr.Unlock(c, h2, nil)
	if len(grants) != 1 || grants[0].Lock != h1 {
		t.Fatalf("conversion not granted: %+v", grants)
	}
	if mgr.HeldMode(c, h1) != EX {
		t.Fatalf("mode = %v", mgr.HeldMode(c, h1))
	}
	// EX -> CR down-conversion is immediate.
	st, _ = mgr.Convert(c, h1, CR, nil)
	if st != Granted {
		t.Fatalf("down-conversion: %v", st)
	}
	mgr.Unlock(c, h1, nil)
}

func TestDownConversionUnblocksWaiters(t *testing.T) {
	cl, _, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	mgr := cl.Manager()

	hEx, _, _ := mgr.Lock(c, 11, EX, 0)
	hCr, st, _ := mgr.Lock(c, 11, CR, 1)
	if st != Waiting {
		t.Fatal("CR should wait behind EX")
	}
	st, grants := mgr.Convert(c, hEx, CR, nil)
	if st != Granted {
		t.Fatalf("down-conversion: %v", st)
	}
	if len(grants) != 1 || grants[0].Lock != hCr {
		t.Fatalf("waiter not unblocked: %+v", grants)
	}
	mgr.Unlock(c, hEx, nil)
	mgr.Unlock(c, hCr, nil)
}

func TestClusterLocalAndRemote(t *testing.T) {
	cl, al, m := newTest(t, 4, machine.Sim)
	c1 := m.CPU(1)

	// Resource 5 is mastered by node 1 (5 % 4); node 1 locking it is
	// local and completes immediately.
	n1 := cl.Node(1)
	reqLocal := n1.Lock(c1, 5, PR)
	comps := n1.TakeCompletions()
	if len(comps) != 1 || comps[0].ReqID != reqLocal || comps[0].St != Granted {
		t.Fatalf("local completion: %+v", comps)
	}
	hLocal := comps[0].Handle

	// Node 2 locking resource 5 goes through a message to node 1.
	c2 := m.CPU(2)
	n2 := cl.Node(2)
	reqRemote := n2.Lock(c2, 5, PR)
	if got := n2.TakeCompletions(); len(got) != 0 {
		t.Fatalf("remote lock completed without master processing: %+v", got)
	}
	if n1.Step(c1, 10) != 1 {
		t.Fatal("master processed no message")
	}
	if n2.Step(c2, 10) != 1 {
		t.Fatal("requester got no response")
	}
	comps = n2.TakeCompletions()
	if len(comps) != 1 || comps[0].ReqID != reqRemote || comps[0].St != Granted {
		t.Fatalf("remote completion: %+v", comps)
	}
	hRemote := comps[0].Handle

	// Unlock both; remote unlock also flows through the master.
	n1.Unlock(c1, hLocal, 5)
	n2.Unlock(c2, hRemote, 5)
	n1.Step(c1, 10)

	s := cl.Manager().Stats()
	if s.Locks != 2 || s.Unlocks != 2 || s.ResFreed != 1 {
		t.Fatalf("stats: %+v", s)
	}
	al.DrainAll(m.CPU(0))
	if err := al.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterGrantNotification(t *testing.T) {
	cl, _, m := newTest(t, 2, machine.Sim)
	c0, c1 := m.CPU(0), m.CPU(1)
	n0, n1 := cl.Node(0), cl.Node(1)

	// Resource 2 is mastered by node 0. Node 0 takes EX; node 1 queues.
	n0.Lock(c0, 2, EX)
	h0 := n0.TakeCompletions()[0].Handle
	n1.Lock(c1, 2, EX)
	n0.Step(c0, 10)
	n1.Step(c1, 10)
	comps := n1.TakeCompletions()
	if len(comps) != 1 || comps[0].St != Waiting {
		t.Fatalf("expected Waiting: %+v", comps)
	}
	h1 := comps[0].Handle

	// Node 0 unlocks: node 1 must receive a grant notification.
	n0.Unlock(c0, h0, 2)
	n1.Step(c1, 10)
	comps = n1.TakeCompletions()
	if len(comps) != 1 || comps[0].Kind != GrantDelivered || comps[0].Handle != h1 {
		t.Fatalf("grant delivery: %+v", comps)
	}
	n1.Unlock(c1, h1, 2)
	n0.Step(c0, 10)
}

func TestManyResourcesChurn(t *testing.T) {
	cl, al, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	mgr := cl.Manager()
	var hs []arena.Addr
	var ids []uint64
	for i := 0; i < 2000; i++ {
		id := uint64(i % 97)
		h, _, err := mgr.Lock(c, id, CR, 0)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
		ids = append(ids, id)
		if len(hs) > 50 {
			mgr.Unlock(c, hs[0], nil)
			hs, ids = hs[1:], ids[1:]
		}
	}
	for _, h := range hs {
		mgr.Unlock(c, h, nil)
	}
	s := mgr.Stats()
	if s.ResCreated != s.ResFreed {
		t.Fatalf("resource leak: %+v", s)
	}
	al.DrainAll(c)
	if err := al.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNativeClusterRace(t *testing.T) {
	cl, al, m := newTest(t, 4, machine.Native)
	const total = 3000
	var doneNodes atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(c *machine.CPU, n *Node) {
			defer wg.Done()
			type held struct {
				h   arena.Addr
				res uint64
			}
			var live []held
			issued, completed := 0, 0
			reportedDone := false
			// A node must keep servicing its inbox (it masters a share
			// of the resources) until EVERY node has finished its own
			// work, or peers wedge waiting for responses.
			for doneNodes.Load() < 4 {
				n.Step(c, 8)
				for _, comp := range n.TakeCompletions() {
					if comp.Kind == LockDone {
						completed++
						live = append(live, held{comp.Handle, comp.ResID})
					}
				}
				switch {
				case issued < total && len(live) < 32:
					res := uint64((issued*7 + n.id) % 50)
					n.Lock(c, res, CR) // CR locks never conflict with CR
					issued++
				case len(live) > 0:
					h := live[len(live)-1]
					live = live[:len(live)-1]
					n.Unlock(c, h.h, h.res)
				}
				if !reportedDone && issued == total && completed == total && len(live) == 0 {
					reportedDone = true
					doneNodes.Add(1)
				}
			}
		}(m.CPU(i), cl.Node(i))
	}
	wg.Wait()
	// All workers done: drain stragglers sequentially (safe: no
	// concurrency remains).
	for round := 0; round < 100; round++ {
		n := 0
		for i := 0; i < 4; i++ {
			n += cl.Node(i).Step(m.CPU(i), 1000)
			cl.Node(i).TakeCompletions()
		}
		if n == 0 {
			break
		}
	}
	al.DrainAll(m.CPU(0))
	if err := al.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLockUnlockBalanced property-tests that arbitrary mode
// sequences on one resource preserve manager invariants: every grant set
// is mutually compatible, and full release frees the resource.
func TestQuickLockUnlockBalanced(t *testing.T) {
	cl, al, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	mgr := cl.Manager()
	f := func(modes []uint8) bool {
		var held []arena.Addr
		for _, mm := range modes {
			mode := Mode(mm % uint8(numModes))
			h, st, err := mgr.Lock(c, 1234, mode, 0)
			if err != nil {
				return false
			}
			if st != Granted && st != Waiting {
				return false
			}
			held = append(held, h)
		}
		// Verify mutual compatibility of everything granted.
		var granted []Mode
		for _, h := range held {
			if mgr.Granted(c, h) {
				granted = append(granted, mgr.HeldMode(c, h))
			}
		}
		for i := range granted {
			for j := i + 1; j < len(granted); j++ {
				if !Compatible(granted[i], granted[j]) {
					t.Logf("incompatible grants %v %v", granted[i], granted[j])
					return false
				}
			}
		}
		for _, h := range held {
			mgr.Unlock(c, h, nil)
		}
		s := mgr.Stats()
		return s.ResCreated == s.ResFreed && al.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
