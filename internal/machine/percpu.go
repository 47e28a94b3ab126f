package machine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// hostLineBytes is the coherence line of every machine the Native
// backend runs on; PerCPU is padded against it.
const hostLineBytes = 64

// PerCPU is one CPU's critical section: the only synchronisation the
// per-CPU caching layers use. It runs one of two protocols, fixed at
// construction, behind the same four calls:
//
//   - Interrupt disable (the paper's: "no synchronization primitives
//     other than the disabling of interrupts"). Sim charges the cli/sti
//     pair — 2 insns + IntrCycles — on entry and nothing on exit; Native
//     is a mutex, uncontended in correct use, that makes foreign drains
//     race-free under the Go memory model. The zero PerCPU is this
//     protocol.
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
//     differ) plus a fence. Native is a claim word and an epoch over
//     real atomics, which give the race detector the happens-before
//     edges the mutex provides under the other protocol.
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
// later line than this one's last live byte. The same holds for a slice
// of structs whose last field is a PerCPU.
type PerCPU struct {
	rseq bool
	line Line // rseq, Sim: the descriptor/epoch word's line, homed with the owner

	mu    sync.Mutex    // interrupt-disable protocol, Native
	claim atomic.Int32  // rseq, Native: 0 free, 1 owner, 2 foreign
	epoch atomic.Uint64 // rseq, Native: bumped by every foreign entrant

	_ [hostLineBytes - 8]byte
}

// NewPerCPUOn returns a critical section for a CPU on the given NUMA
// node, restartable when rseq is set. Only the restartable protocol has
// a shared word, so only it reserves a metadata line (homed on node, so
// the owner's path stays node-local).
func NewPerCPUOn(m *Machine, node int, rseq bool) PerCPU {
	if !rseq {
		return PerCPU{}
	}
	return PerCPU{rseq: true, line: m.NewMetaLineOn(node)}
}

// Enter begins the owner's section on CPU c and returns how many
// attempts were aborted first (always 0 under interrupt disable).
func (p *PerCPU) Enter(c *CPU) (restarts int) {
	switch {
	case !p.rseq && c.sim:
		c.m.lockJitter(c)
		c.DisableIntr()
	case !p.rseq:
		p.mu.Lock()
	case c.sim:
		m := c.m
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
	default:
		for {
			e := p.epoch.Load()
			if !p.claim.CompareAndSwap(0, 1) {
				runtime.Gosched()
				continue
			}
			if p.epoch.Load() == e {
				break
			}
			// A foreign entrant completed between the epoch sample and
			// the claim: abort and restart from the top.
			p.claim.Store(0)
			restarts++
		}
	}
	return restarts
}

// Exit commits and leaves the owner's section.
func (p *PerCPU) Exit(c *CPU) {
	switch {
	case !p.rseq && c.sim: // the cli/sti pair was charged on entry
	case !p.rseq:
		p.mu.Unlock()
	case c.sim:
		c.Work(1) // commit store
		c.clock += CommitCycles
	default:
		p.claim.Store(0)
	}
}

// EnterForeign begins a section against this CPU's state from another
// instruction stream, aborting any attempt the owner makes meanwhile.
// Under interrupt disable owner and foreign entry are the same thing.
func (p *PerCPU) EnterForeign(c *CPU) {
	switch {
	case !p.rseq:
		p.Enter(c)
	case c.sim:
		c.Atomic(p.line)
		c.clock += FenceCycles
	default:
		for !p.claim.CompareAndSwap(0, 2) {
			runtime.Gosched()
		}
		p.epoch.Add(1)
	}
}

// ExitForeign leaves a section begun with EnterForeign. A foreign
// entrant has no commit store to charge; everything else is Exit.
func (p *PerCPU) ExitForeign(c *CPU) {
	if p.rseq && c.sim {
		return
	}
	p.Exit(c)
}
