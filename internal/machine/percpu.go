package machine

import (
	"runtime"
	"sync/atomic"
)

// HostLineBytes is the coherence line of every machine the Native
// backend runs on; PerCPU, and the per-CPU state of the packages that
// use it, is padded against it.
const HostLineBytes = 64

// PerCPU is one CPU's critical section: the only synchronisation the
// per-CPU caching layers use. Sim models one of two protocols, fixed at
// construction, behind the same four calls:
//
//   - Interrupt disable (the paper's: "no synchronization primitives
//     other than the disabling of interrupts"). It charges the cli/sti
//     pair — 2 insns + IntrCycles — on entry and nothing on exit. The
//     zero PerCPU is this protocol.
//
//   - Restartable sequence. The owner's section commits with a single
//     store — no interrupt disable, no lock word, no bus-locked
//     instruction — and is restarted from the top, never blocked, when
//     preemption or a foreign entrant lands inside it. An undisturbed
//     section charges 1 insn to arm the descriptor on entry and 1 insn +
//     CommitCycles for the commit store on exit: the cli/sti pair's
//     instruction count, IntrCycles-CommitCycles fewer cycles. Aborts
//     are injected from the seeded jitter stream
//     (JitterConfig.RestartEvery); each charges the armed descriptor, an
//     adversarially chosen slice of wasted body work and RestartCycles
//     for the vector through the abort handler. A foreign entrant bumps the section's epoch: a
//     bus-locked RMW on the descriptor line (remote when the nodes
//     differ) plus a fence.
//
// Native runs one protocol whichever Sim models: a claim word over real
// atomics, which the owner takes 0 → 1 and a foreign entrant 0 → 2. An
// owner that finds a foreign entrant inside the section counts the
// attempt as aborted (one restart) and waits it out, so restarts never
// outnumber foreign sections. An undisturbed section is a CAS and a
// store: two bus-locked instructions, since every Go atomic store is an
// XCHG on amd64. The atomics give the race detector the happens-before
// edges between owner and foreign sections. Only the owner's undisturbed
// path is inline; the Sim charges and the wait are out of line.
//
// The contract: the owning CPU's instruction stream brackets its section
// with Enter/Exit, any other stream (drains, stats) with EnterForeign/
// ExitForeign, and the code between them is straight-line. Enter returns
// only once the section is held, so in both modes the code after it runs
// exactly once per call; Sim models an aborted attempt as pure wasted
// work with the published state untouched, which is what a commit-store
// sequence provides as long as the section confines its side effects to
// the state it guards plus locals. Enter reports the aborted attempts so
// the caller can tally them into that guarded state while still inside
// the section — after Exit a foreign entrant may be reading it.
//
// The trailing pad is a host line less the struct's alignment: wherever
// an element of a []PerCPU lands, the next element's first byte is on a
// later line than this one's last live byte.
type PerCPU struct {
	rseq bool
	line Line // rseq, Sim: the descriptor/epoch word's line, homed with the owner

	claim atomic.Int32 // Native: 0 free, 1 owner, 2 foreign

	_ [HostLineBytes - 8]byte
}

// NewPerCPUOn returns a critical section for a CPU on the given NUMA
// node whose Sim charges are the restartable protocol's when rseq is set
// and interrupt disable's otherwise. Only the restartable protocol has a
// shared word in Sim, so only it reserves a metadata line (homed on
// node, so the owner's path stays node-local). Each CPU has one section:
// core.New builds it, and every per-CPU layer over that allocator, typed
// caches included, brackets its state with it.
func NewPerCPUOn(m *Machine, node int, rseq bool) PerCPU {
	if !rseq {
		return PerCPU{}
	}
	return PerCPU{rseq: true, line: m.NewMetaLineOn(node)}
}

// Enter begins the owner's section on CPU c and returns how many
// attempts were aborted first (always 0 under Sim's interrupt disable).
func (p *PerCPU) Enter(c *CPU) (restarts int) {
	if !c.sim && p.claim.CompareAndSwap(0, 1) {
		return 0
	}
	return p.enterSlow(c)
}

// enterSlow is every entry but the Native owner's undisturbed one. In
// Sim it charges the modelled protocol's entry. In Native the claim
// found a foreign entrant inside the section: the owner's attempt is
// aborted — one restart — and it waits the foreign section out.
func (p *PerCPU) enterSlow(c *CPU) (restarts int) {
	if !c.sim {
		for !p.claim.CompareAndSwap(0, 1) {
			runtime.Gosched()
		}
		return 1
	}
	m := c.m
	if !p.rseq {
		m.lockJitter(c)
		c.DisableIntr()
		return 0
	}
	for {
		abort, wasted := m.rseqAbort(c)
		if !abort {
			break
		}
		restarts++
		c.restarts++
		c.Work(1 + wasted)
		c.clock += RestartCycles
	}
	c.Work(1) // arm the descriptor
	return restarts
}

// Exit commits and leaves the owner's section.
func (p *PerCPU) Exit(c *CPU) {
	if c.sim {
		p.exitSim(c)
		return
	}
	p.claim.Store(0)
}

// exitSim charges the rseq commit store; the cli/sti pair was charged on
// entry.
func (p *PerCPU) exitSim(c *CPU) {
	if p.rseq {
		c.Work(1) // commit store
		c.clock += CommitCycles
	}
}

// EnterForeign begins a section against this CPU's state from another
// instruction stream, aborting any attempt the owner makes meanwhile.
// Under Sim's interrupt disable owner and foreign entry are the same
// thing.
func (p *PerCPU) EnterForeign(c *CPU) {
	switch {
	case !c.sim:
		for !p.claim.CompareAndSwap(0, 2) {
			runtime.Gosched()
		}
	case !p.rseq:
		p.enterSlow(c)
	default:
		c.Atomic(p.line)
		c.clock += FenceCycles
	}
}

// ExitForeign leaves a section begun with EnterForeign. A foreign
// entrant has no commit store to charge, and the cli/sti pair was
// charged on entry, so Sim charges nothing.
func (p *PerCPU) ExitForeign(c *CPU) {
	if !c.sim {
		p.claim.Store(0)
	}
}
