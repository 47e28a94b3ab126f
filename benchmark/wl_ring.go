package main

import "fmt"

// ringLoad is the per-CPU churn pattern: every worker owns a ring of
// slots; each step frees the block in one slot (verifying its fill) and
// allocates a fresh one into it. Nothing ever leaves the worker, so after
// warm-up the per-CPU layer serves everything.
//
//   - churn: Sim, 8 CPUs, one 128-byte class, a 4-slot ring replaced at a
//     seeded random slot — the working set stays below target (10), the
//     paper's Figure 7 best case.
//   - native_churn: Native, G CPU handles, 64-slot FIFO ring over four
//     sizes, touching 8 bytes per block. Slot j always holds size j mod 4,
//     so every class's live count is constant and the workload stays on
//     the fast path; its op stream takes nothing from the seed.
type ringLoad struct {
	cfg      sutConfig
	sizes    []uint64
	slots    int
	fifo     bool
	fullFill bool // fill and verify the whole block (Sim); else one 8-byte tag

	e       *env
	plan    *plan
	cookies []cookie
	st      []ringState
}

type ringSlot struct {
	addr uint64
	size uint8 // index into sizes
	tag  uint8
}

type ringState struct {
	slots  []ringSlot
	next   int    // FIFO cursor
	seq    uint64 // allocation counter: tag source and span op id
	budget uint64 // ops left in this phase
}

func newChurn() workload {
	return &ringLoad{
		cfg:   sutConfig{cpus: 8, nodes: 1, memBytes: 32 << 20, physPages: 4096, prof: profPaper},
		sizes: []uint64{128}, slots: 4, fullFill: true,
	}
}

func newNativeChurn() workload {
	return &ringLoad{
		cfg:   sutConfig{native: true, nodes: 1, memBytes: 32 << 20, physPages: 4096, prof: profNative},
		sizes: []uint64{64, 128, 256, 1024}, slots: 64, fifo: true,
	}
}

func (l *ringLoad) config(p *plan) sutConfig {
	cfg := l.cfg
	if cfg.native {
		cfg.cpus = p.workers
	}
	return cfg
}

func (l *ringLoad) init(e *env, p *plan) error {
	l.e = e
	for _, sz := range l.sizes {
		ck, err := e.s.getCookie(sz)
		if err != nil {
			return fmt.Errorf("cookie for %d bytes: %w", sz, err)
		}
		l.cookies = append(l.cookies, ck)
	}
	l.st = make([]ringState, len(e.w))
	for i := range l.st {
		slots := make([]ringSlot, l.slots)
		for j := range slots {
			slots[j].size = uint8(j % len(l.sizes))
		}
		l.st[i].slots = slots
	}
	l.plan = p
	return nil
}

func (l *ringLoad) begin(phase int) uint64 {
	per := l.plan.timedOps / uint64(len(l.st))
	if phase == phaseWarm {
		per /= warmShare
	}
	for i := range l.st {
		l.st[i].budget = per
	}
	return per * uint64(len(l.st))
}

func (l *ringLoad) step(w *worker) bool {
	e, st := l.e, &l.st[w.id]
	if st.budget == 0 {
		return false
	}
	i := st.next
	if l.fifo {
		if st.next++; st.next == len(st.slots) {
			st.next = 0
		}
	} else {
		i = w.rng.intn(len(st.slots))
	}
	sl := &st.slots[i]
	st.seq++
	e.opBegin(w, "ring.replace", st.seq)
	var n, failed uint64
	if sl.addr != 0 {
		l.release(w, sl)
		n++
	}
	si := int(sl.size)
	b, err := e.allocCookie(w, l.cookies[si])
	n++
	if err != nil {
		failed++
	} else {
		sl.addr, sl.tag = b, uint8(st.seq)
		e.markBlock(w, b, l.sizes[si], sl.tag, l.fullFill)
	}
	e.opEnd(w, n, failed)
	if st.budget <= n {
		st.budget = 0
		return false
	}
	st.budget -= n
	return true
}

// release verifies the slot's block and frees it.
func (l *ringLoad) release(w *worker, sl *ringSlot) {
	l.e.checkBlock(w, sl.addr, l.sizes[sl.size], sl.tag, l.fullFill)
	l.e.freeCookie(w, sl.addr, l.cookies[sl.size])
	sl.addr = 0
}

func (l *ringLoad) teardown(e *env) {
	for i := range l.st {
		w := &e.w[i]
		for j := range l.st[i].slots {
			if sl := &l.st[i].slots[j]; sl.addr != 0 {
				l.release(w, sl)
			}
		}
	}
}

func (l *ringLoad) slicing() (periods, perPeriod int) { return uniformSlices, 1 }

func (l *ringLoad) extras(m *measurement) {}
