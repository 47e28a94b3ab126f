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

// BenchmarkSimStep times one scheduler step of an 8-CPU machine whose
// operation is as small as operations get: some instructions, a load and
// a store of a line the CPUs share.
func BenchmarkSimStep(b *testing.B) {
	mc := DefaultConfig()
	mc.NumCPUs = 8
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

// BenchmarkAccessHit times a load that hits the cache, with the TLB model
// off (the calibrated default) and on.
func BenchmarkAccessHit(b *testing.B) {
	for _, tlb := range []int{0, 64} {
		b.Run(fmt.Sprintf("tlb%d", tlb), func(b *testing.B) {
			mc := DefaultConfig()
			mc.TLBEntries = tlb
			m := New(mc)
			c := m.CPU(0)
			const lines = 64 // fits the 256-line cache
			for i := 0; i < lines; i++ {
				c.Read(Line(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Read(Line(i % lines))
			}
		})
	}
}
