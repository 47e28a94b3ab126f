package machine

import "sync"

// SpinLock is the mutual-exclusion primitive the lock-based allocators
// (and the new allocator's global layer) use.
//
// In Sim mode it models a test-and-test-and-set spinlock on the paper's
// hardware. The simulator executes whole operations in virtual-clock
// order, so a lock is represented by its recent *hold intervals*: an
// acquire at time t must wait past every recorded hold overlapping t
// (chasing the chain of back-to-back holds, exactly like spinning through
// consecutive owners), and each release records the new [acquire,release]
// interval. Modelling intervals rather than a single "free after" time
// keeps a short critical section short even when it sits inside an
// expensive operation. Contended acquires also inject retry traffic onto
// the shared bus, so heavy spinning degrades every CPU — the effect that
// flattens the lock-based allocators in Figures 7 and 8.
//
// In Native mode it is a plain sync.Mutex.
type SpinLock struct {
	mu sync.Mutex // Native mode

	// Sim mode state.
	line     Line
	holds    intervals // recent hold intervals
	curStart int64     // acquire time of the hold currently executing

	acquisitions uint64
	contended    uint64
	spinCycles   int64 // total cycles spent waiting for the lock
	holdCycles   int64 // total cycles the lock was held
	lastWait     int64 // wait cycles of the most recent Acquire (0 if uncontended)

	// triedHeld is set by a failed TryAcquire, which already counted the
	// Acquire that follows it as contended; that Acquire clears it.
	triedHeld bool
}

// holdHistory is how many completed critical sections a lock remembers.
// Operations execute in start-clock order, so only holds from recently
// executed operations can overlap a new acquire; with at most 64 CPUs,
// 128 intervals is ample.
const holdHistory = 128

// NewSpinLock returns a lock whose lock word lives on its own cache line,
// homed on node 0.
func NewSpinLock(m *Machine) *SpinLock { return NewSpinLockOn(m, 0) }

// NewSpinLockOn returns a lock whose lock word lives on its own cache
// line homed on the given NUMA node, so remote acquirers pay the
// interconnect.
func NewSpinLockOn(m *Machine, node int) *SpinLock {
	return &SpinLock{line: m.NewMetaLineOn(node), holds: newIntervals(holdHistory)}
}

// maxRetryCharge bounds the bus traffic charged for one contended
// acquisition, so that a pathological wait cannot make the bus model
// diverge.
const maxRetryCharge = 64

// Line returns the lock word's cache line (for profiling and naming).
func (l *SpinLock) Line() Line { return l.line }

// Acquire takes the lock on behalf of CPU c.
func (l *SpinLock) Acquire(c *CPU) {
	if !c.sim {
		l.mu.Lock()
		return
	}
	c.m.lockJitter(c)
	l.acquisitions++
	l.lastWait = 0
	// Initial test-and-set attempt. The successful test-and-set belongs
	// to the hold interval: between the winner's bus-locked RMW and its
	// release store, no other CPU can take the lock.
	tsStart := c.clock
	c.Atomic(l.line)

	// Chase the chain of holds overlapping the current time, re-checking
	// after each retry: the bus-locked retry itself advances the clock
	// and may land inside another recorded hold.
	wasContended := false
	for {
		t := l.holds.chase(c.clock)
		wait := t - c.clock
		if wait <= 0 {
			break
		}
		wasContended = true
		l.spinCycles += wait
		l.lastWait += wait
		c.spinWait += wait
		c.noteWait(l.line, wait)
		retries := wait / SpinRetryGap
		if retries > maxRetryCharge {
			retries = maxRetryCharge
		}
		// The spinning CPU's periodic test-and-set retries occupy its
		// node's bus across the wait window, degrading everyone sharing
		// it — and the interconnect too when the lock word is homed on
		// another node.
		if retries > 0 {
			b := &c.m.buses[c.node]
			b.occupy(c.clock, c.clock+retries*c.m.cfg.BusCycles)
			b.txns += uint64(retries)
			if len(c.m.buses) > 1 && c.m.lineHome(l.line) != c.node {
				c.m.ic.occupy(c.clock, c.clock+retries*c.m.cfg.InterconnectCycles)
				c.m.ic.txns += uint64(retries)
			}
		}
		c.clock = t
		// The winning test-and-set after the previous holder's release.
		tsStart = c.clock
		c.Atomic(l.line)
	}
	if wasContended && !l.triedHeld {
		l.contended++
	}
	l.triedHeld = false
	l.curStart = tsStart
}

// TryAcquire performs only Acquire's first test-and-set on behalf of CPU
// c and reports whether it took the lock. On a free lock it charges
// exactly what an uncontended Acquire charges. On a held lock it pays the
// failed test-and-set and records no hold; it counts one contended
// acquisition, the Acquire the caller makes once it has done whatever
// work needs no lock, and that Acquire does not count it again. In Native
// mode it is sync.Mutex.TryLock.
func (l *SpinLock) TryAcquire(c *CPU) bool {
	if !c.sim {
		return l.mu.TryLock()
	}
	c.m.lockJitter(c)
	tsStart := c.clock
	c.Atomic(l.line)
	if l.holds.chase(c.clock) > c.clock {
		l.contended++
		l.triedHeld = true
		return false
	}
	l.acquisitions++
	l.lastWait = 0
	l.curStart = tsStart
	return true
}

// Release drops the lock, recording the completed hold interval. The
// release itself is a plain store to the (now owned) lock word.
func (l *SpinLock) Release(c *CPU) {
	if !c.sim {
		l.mu.Unlock()
		return
	}
	c.Write(l.line)
	start, end := l.curStart, c.clock
	if end == start {
		end++ // zero-length sections still exclude exact ties
	}
	l.holdCycles += end - start
	l.holds.occupy(start, end)
}

// LastWait returns the cycles the most recent Acquire spent waiting for
// the lock (0 for an uncontended acquire, and always 0 in Native mode).
// The value is only meaningful while the caller still holds the lock —
// layers read it right after Acquire to attribute contention to the
// event spine (EvLockWait).
func (l *SpinLock) LastWait() int64 { return l.lastWait }

// HeldSince returns the virtual time the current hold began: the winning
// test-and-set, where HoldCycles starts counting (Sim mode). Like
// LastWait it is only meaningful while the lock is held — tests read it
// to place a critical section on the clock.
func (l *SpinLock) HeldSince() int64 { return l.curStart }

// LockStats is a snapshot of spinlock contention counters. SpinCycles is
// the accumulated wait time (cycles CPUs spent spinning for the lock);
// HoldCycles is the accumulated time the lock was held. Their ratio is
// the classic contention diagnostic: wait >> hold means the lock is the
// bottleneck, hold >> wait means the critical section is merely long.
type LockStats struct {
	Acquisitions uint64
	Contended    uint64
	SpinCycles   int64
	HoldCycles   int64
}

// Add accumulates another lock's counters into s, for totals over a set
// of locks (one pool per node).
func (s *LockStats) Add(o LockStats) {
	s.Acquisitions += o.Acquisitions
	s.Contended += o.Contended
	s.SpinCycles += o.SpinCycles
	s.HoldCycles += o.HoldCycles
}

// Stats returns the lock's contention counters.
func (l *SpinLock) Stats() LockStats {
	return LockStats{
		Acquisitions: l.acquisitions,
		Contended:    l.contended,
		SpinCycles:   l.spinCycles,
		HoldCycles:   l.holdCycles,
	}
}
