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
				// Emitted once the refilled lists are visible to other
				// CPUs: after g.lk is released, or after the last CAS push.
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
			// Measured when this test was written: CPU 1 ends at 385
			// holding a block of the refill CPU 0 publishes at 99,660.
			t.Skipf("known gap (ROADMAP, \"A publication rule in the simulator\"; DESIGN.md §14): CPU 1's alloc ends at cycle %d, CPU 0 publishes the refill at %d and ends at %d — a lock-free pop takes a list from its own virtual future",
				end[1], published, end[0])
		}
	})
}
