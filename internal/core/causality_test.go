package core

import (
	"testing"

	"kmem/internal/machine"
)

// TestRefillPublishedBeforeConsumed pins the causality a lock-hold
// shortening (ROADMAP, "A publication rule in the simulator, then
// shorter lock holds") must keep. Two CPUs allocate 1 KB from a
// cold class at clock 0. CPU 0 runs first and refills the global layer
// from the page layer; CPU 1 is handed a list from that refill, so its
// allocation must not end before the refill was published. Operations
// run to completion in start-clock order, so nothing but the lock's hold
// interval stops CPU 1 — simulated second, but at clock 0 — from popping
// a list that exists only in its virtual future.
func TestRefillPublishedBeforeConsumed(t *testing.T) {
	run := func(t *testing.T, p Params) (published int64, end [2]int64) {
		var cur *machine.CPU
		refills := 0
		p.Hook = func(cls int, ev LayerEvent, n int) {
			if ev == EvGlobalRefill {
				// Emitted once getList has released g.lk, in every
				// profile: the refilled lists are visible to the
				// locked path from then on (under LockFree, to the
				// CAS pop in front of the lock from their push).
				published = cur.Now()
				refills++
			}
		}
		a, m := testAllocator(t, 2, 1024, p)
		done := [2]bool{}
		m.Run(func(c *machine.CPU) bool {
			if done[c.ID()] {
				return false
			}
			done[c.ID()] = true
			if c.Now() != 0 {
				t.Fatalf("cpu %d starts at clock %d, want 0", c.ID(), c.Now())
			}
			cur = c
			if _, err := a.Alloc(c, 1024); err != nil {
				t.Fatal(err)
			}
			end[c.ID()] = c.Now()
			return true
		})
		if refills != 1 {
			t.Fatalf("%d global refills, want 1: CPU 1 must consume CPU 0's", refills)
		}
		return published, end
	}

	t.Run("locked", func(t *testing.T) {
		published, end := run(t, Params{})
		if end[1] < published {
			t.Fatalf("CPU 1's alloc ends at cycle %d, before CPU 0 released the refill at %d", end[1], published)
		}
		t.Logf("CPU 0 releases the refill at %d and ends at %d; CPU 1 ends at %d", published, end[0], end[1])
	})
	t.Run("lockfree", func(t *testing.T) {
		published, end := run(t, Params{LockFree: true})
		if end[1] < published {
			// Measured once the refill ran under g.lk in every
			// profile: CPU 0 publishes the refill at 97,663 and ends at
			// 97,730; CPU 1 still ends at 385, holding a block of it.
			t.Skipf("known gap (ROADMAP, \"A publication rule in the simulator\"; DESIGN.md §14): CPU 1's alloc ends at cycle %d, CPU 0 publishes the refill at %d and ends at %d — the CAS pop in front of g.lk takes a list from its own virtual future",
				end[1], published, end[0])
		}
	})
}

// TestLockFreeRefillWaitsForLock pins where a LockFree refill runs:
// inside g.lk, as under the paper's profile, with only a CAS pop in front
// of the lock. With one list per refill (gbltarget 1), two CPUs that both
// miss the empty stack at clock 0 each refill; CPU 1's refill must run in
// a hold of g.lk that begins no earlier than CPU 0's release, so it waits
// for CPU 0's instead of carving alongside it from clock 0.
func TestLockFreeRefillWaitsForLock(t *testing.T) {
	var (
		a       *Allocator
		cls     int
		cur     *machine.CPU
		refills int
		// released is when CPU 0's getList released g.lk; heldSince is
		// where the g.lk hold around CPU 1's refill began.
		released, heldSince int64 = -1, -1
	)
	p := Params{
		LockFree:     true,
		GblTargetFor: func(uint32) int { return 1 },
		Hook: func(_ int, ev LayerEvent, _ int) {
			switch {
			case ev == EvBlockGet && cur.ID() == 1:
				// Emitted inside getLists, while the refill holds its
				// locks.
				heldSince = a.classes[cls].globals[0].lk.HeldSince()
			case ev == EvGlobalRefill:
				// Emitted by getList once it has released g.lk.
				refills++
				if cur.ID() == 0 {
					released = cur.Now()
				}
			}
		},
	}
	a, m := testAllocator(t, 2, 1024, p)
	cls, _ = a.classOf(1024)
	done := [2]bool{}
	m.Run(func(c *machine.CPU) bool {
		if done[c.ID()] {
			return false
		}
		done[c.ID()] = true
		if c.Now() != 0 {
			t.Fatalf("cpu %d starts at clock %d, want 0", c.ID(), c.Now())
		}
		cur = c
		if _, err := a.Alloc(c, 1024); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if refills != 2 {
		t.Fatalf("%d global refills, want 2: each CPU must find the stack empty", refills)
	}
	if released < 0 || heldSince < released {
		t.Fatalf("CPU 1's refill runs in a g.lk hold from cycle %d, before CPU 0 released g.lk at %d", heldSince, released)
	}
	t.Logf("CPU 0 releases g.lk at %d; CPU 1 refills in a hold from %d", released, heldSince)
}
