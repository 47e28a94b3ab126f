package machine

import (
	"fmt"
	"testing"
)

// The host cost of the simulator's own primitives: what a simulated
// operation pays before the allocator under test runs a line. Virtual
// results are pinned elsewhere (TestSchedHashPinned); these only have to
// keep compiling and running (CI runs them with -benchtime 1x).

// BenchmarkBusTxn times one bus transaction in the three regimes the
// occupancy history sees: a CPU alone at the front of virtual time, eight
// CPUs on two nodes saturating their buses with every fifth transaction
// crossing the interconnect, and a CPU running through the trail another
// left by getting more than a history's worth of transactions ahead.
func BenchmarkBusTxn(b *testing.B) {
	mc := DefaultConfig()
	mc.NumCPUs = 8
	mc.Nodes = 2
	b.Run("front", func(b *testing.B) {
		m := New(mc)
		c := m.CPU(0)
		for i := 0; i < b.N; i++ {
			c.clock = m.busTxn(c, false)
		}
	})
	b.Run("contended", func(b *testing.B) {
		m := New(mc)
		for i := 0; i < b.N; i++ {
			c := m.CPU(i % mc.NumCPUs)
			c.clock = m.busTxn(c, i%5 == 0)
		}
	})
	b.Run("trail", func(b *testing.B) {
		m := New(mc)
		ahead, behind := m.CPU(0), m.CPU(1)
		for i := 0; i < b.N; i += 2 * busHistory {
			behind.clock = ahead.clock
			for j := 0; j < 2*busHistory; j++ {
				ahead.clock = m.busTxn(ahead, false)
			}
			for j := 0; j < 2*busHistory; j++ {
				behind.clock = m.busTxn(behind, false)
			}
		}
	})
}

// BenchmarkSimStep times one scheduler step of a machine whose operation
// is as small as operations get: some instructions, a load and a store of
// a line the CPUs share. The CPU counts span the sweeps' machines, from
// two CPUs to the paper's 25 and the directory's limit of 64: the run
// heap's depth grows with them.
func BenchmarkSimStep(b *testing.B) {
	for _, n := range []int{2, 8, 25, 64} {
		b.Run(fmt.Sprintf("%dcpu", n), func(b *testing.B) {
			mc := DefaultConfig()
			mc.NumCPUs = n
			m := New(mc)
			m.EnableSchedHash()
			shared := m.NewMetaLine()
			steps := 0
			b.ResetTimer()
			m.Run(func(c *CPU) bool {
				if steps >= b.N {
					return false
				}
				steps++
				c.Work(5)
				c.Read(shared)
				c.Write(shared)
				return true
			})
		})
	}
}

// BenchmarkSchedStep times the scheduler alone: 8 CPUs whose clocks stay
// in lock step, so every step hashes, sifts the full depth of the heap
// and breaks ties by id.
func BenchmarkSchedStep(b *testing.B) {
	mc := DefaultConfig()
	mc.NumCPUs = 8
	m := New(mc)
	m.EnableSchedHash()
	steps := 0
	b.ResetTimer()
	m.Run(func(c *CPU) bool {
		if steps >= b.N {
			return false
		}
		steps++
		c.Idle(1)
		return true
	})
}

// BenchmarkAccessHit times an access that hits the cache: a load of an
// arena line with the TLB model off (the calibrated default) and on, a
// store to an owned arena line, and a load and a store of metadata lines.
func BenchmarkAccessHit(b *testing.B) {
	const lines = 64 // fits the 256-line cache
	rows := []struct {
		name  string
		tlb   int
		write bool
		meta  bool
	}{
		{"tlb0", 0, false, false},
		{"tlb64", 64, false, false},
		{"write", 0, true, false},
		{"meta-read", 0, false, true},
		{"meta-write", 0, true, true},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			mc := DefaultConfig()
			mc.TLBEntries = r.tlb
			m := New(mc)
			c := m.CPU(0)
			var ls [lines]Line
			for i := range ls {
				ls[i] = Line(i)
				if r.meta {
					ls[i] = m.NewMetaLine()
				}
				c.Write(ls[i]) // resident and owned
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r.write {
					c.Write(ls[i%lines])
				} else {
					c.Read(ls[i%lines])
				}
			}
			if c.Stats().Misses != lines {
				b.Fatalf("%d misses, want only the %d warming stores", c.Stats().Misses, lines)
			}
		})
	}
}
