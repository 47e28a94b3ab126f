package machine

import "sync"

// Run drives all CPUs through repeated calls of body until body returns
// false for every CPU. body(c) should perform one short operation (for
// example one allocate/free pair) and return whether the CPU should keep
// running.
//
// In Sim mode, Run executes operations one at a time in increasing
// virtual-clock order — a conservative discrete-event schedule that keeps
// lock arbitration and bus contention causally consistent. The result is
// deterministic. In Native mode, Run starts one goroutine per CPU.
func (m *Machine) Run(body func(c *CPU) bool) {
	if m.cfg.Mode == Sim {
		m.runSim(body)
		return
	}
	var wg sync.WaitGroup
	for i := range m.cpus {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			for body(c) {
			}
		}(&m.cpus[i])
	}
	wg.Wait()
}

// runsBefore orders CPUs by virtual clock. Ties go to the CPU's jitter
// tie priority — all zero unless schedule jitter is armed, in which case
// each CPU carries a seeded pseudo-random priority refreshed per op —
// and finally to the ID, so the order is always total and, without
// jitter, identical to the historical clock-then-id schedule.
func runsBefore(a, b *CPU) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	if a.tiePri != b.tiePri {
		return a.tiePri < b.tiePri
	}
	return a.id < b.id
}

// siftDown restores the min-heap property of h below index i. The order
// is total, so the CPU at h[0] — the only one the scheduler ever looks
// at — does not depend on how the heap is laid out beneath it.
func siftDown(h []*CPU, i int) {
	c := h[i]
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			break
		}
		if r := kid + 1; r < len(h) && runsBefore(h[r], h[kid]) {
			kid = r
		}
		if !runsBefore(h[kid], c) {
			break
		}
		h[i] = h[kid]
		i = kid
	}
	h[i] = c
}

func (m *Machine) runSim(body func(c *CPU) bool) {
	h := make([]*CPU, len(m.cpus))
	for i := range m.cpus {
		h[i] = &m.cpus[i]
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		c := h[0]
		if m.schedHashOn {
			m.schedHash = fnvMix(fnvMix(m.schedHash, uint64(c.id)), uint64(c.clock))
		}
		if body(c) {
			if j := m.jit; j != nil {
				// A seeded preemption point: after the op, the CPU may
				// lose the processor for a bounded random interval,
				// letting other CPUs' operations slide in front.
				if j.next()%jitPreemptEvery == 0 {
					c.clock += j.delay(jitMaxPreemptCycles)
				}
				c.tiePri = j.next()
			}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) == 0 {
				break
			}
		}
		siftDown(h, 0)
	}
}

// RunFor drives all CPUs with body for the given number of virtual
// seconds and returns the number of body invocations completed per CPU.
// Clocks are first synchronized forward to the latest CPU's time (the
// moment "the benchmark starts", after any setup work), so lock and bus
// state from setup remains causally consistent. Sim mode only.
func (m *Machine) RunFor(seconds float64, body func(c *CPU)) []uint64 {
	if m.cfg.Mode != Sim {
		panic("machine: RunFor requires Sim mode")
	}
	base := m.SyncClocks()
	deadline := base + m.SecondsToCycles(seconds)
	ops := make([]uint64, len(m.cpus))
	m.Run(func(c *CPU) bool {
		if c.clock >= deadline {
			return false
		}
		body(c)
		ops[c.id]++
		return true
	})
	return ops
}

// SyncClocks advances every CPU's clock to the maximum across CPUs —
// the common origin of a measurement phase — and returns it. Virtual
// time never moves backwards, so spinlock release times and bus state
// stay consistent.
func (m *Machine) SyncClocks() int64 {
	var max int64
	for i := range m.cpus {
		if m.cpus[i].clock > max {
			max = m.cpus[i].clock
		}
	}
	for i := range m.cpus {
		m.cpus[i].clock = max
	}
	return max
}

// ResetStats zeroes the per-CPU and bus counters (not the clocks: virtual
// time must never move backwards once locks and the bus carry state).
func (m *Machine) ResetStats() {
	for i := range m.cpus {
		m.cpus[i].ResetStats()
	}
	for i := range m.buses {
		m.buses[i].txns = 0
	}
	m.ic.txns = 0
}
