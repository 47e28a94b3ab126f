package machine

import (
	"testing"
	"testing/quick"
)

// Property tests on the simulator's core invariants.

// TestQuickClockMonotonic: no sequence of operations ever moves a CPU's
// clock backwards.
func TestQuickClockMonotonic(t *testing.T) {
	f := func(ops []uint16) bool {
		m := simMachine(2)
		lk := NewSpinLock(m)
		last := []int64{0, 0}
		for _, op := range ops {
			c := m.CPU(int(op) % 2)
			switch (op >> 1) % 5 {
			case 0:
				c.Work(int64(op % 97))
			case 1:
				c.Read(Line(op % 512))
			case 2:
				c.Write(Line(op % 512))
			case 3:
				c.Atomic(Line(op % 64))
			case 4:
				lk.Acquire(c)
				c.Work(int64(op % 31))
				lk.Release(c)
			}
			if c.Now() < last[c.ID()] {
				t.Logf("clock moved backwards: %d -> %d", last[c.ID()], c.Now())
				return false
			}
			last[c.ID()] = c.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterministicReplay: identical op sequences produce identical
// clocks and stats.
func TestQuickDeterministicReplay(t *testing.T) {
	run := func(ops []uint16) [2]Stats {
		m := simMachine(2)
		lk := NewSpinLock(m)
		for _, op := range ops {
			c := m.CPU(int(op) % 2)
			switch (op >> 1) % 4 {
			case 0:
				c.Work(int64(op % 53))
			case 1:
				c.Read(Line(op % 256))
			case 2:
				c.Atomic(Line(op % 32))
			case 3:
				lk.Acquire(c)
				lk.Release(c)
			}
		}
		return [2]Stats{m.CPU(0).Stats(), m.CPU(1).Stats()}
	}
	f := func(ops []uint16) bool {
		a, b := run(ops), run(ops)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHitNeverCostsMoreThanMiss: for any access pattern, a CPU's
// total cycles are bounded by treating every access as a miss.
func TestQuickHitNeverCostsMoreThanMiss(t *testing.T) {
	f := func(lines []uint8) bool {
		m := simMachine(1)
		c := m.CPU(0)
		for _, l := range lines {
			c.Read(Line(l))
		}
		s := c.Stats()
		worst := int64(len(lines)) * (m.Config().MissCycles + CyclesPerInsn)
		return s.Cycles <= worst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLockMutualExclusion: recorded hold intervals never overlap,
// for arbitrary interleavings of lock users.
func TestQuickLockMutualExclusion(t *testing.T) {
	f := func(ops []uint8) bool {
		m := simMachine(4)
		lk := NewSpinLock(m)
		type section struct{ start, end int64 }
		var sections []section
		for _, op := range ops {
			c := m.CPU(int(op) % 4)
			c.Work(int64(op % 17)) // desynchronize clocks
			lk.Acquire(c)
			s := c.Now()
			c.Work(int64(op%29) + 1)
			lk.Release(c)
			sections = append(sections, section{s, c.Now()})
		}
		for i := range sections {
			for j := i + 1; j < len(sections); j++ {
				a, b := sections[i], sections[j]
				if a.start < b.end && b.start < a.end {
					t.Logf("overlap: [%d,%d) and [%d,%d)", a.start, a.end, b.start, b.end)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
