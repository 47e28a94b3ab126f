package core

import (
	"kmem/internal/blocklist"
	"kmem/internal/machine"
)

// listStack is a global pool's stack of target-sized lists (gblfree in
// the paper's Figure 3), always pushed and popped under the pool's lock
// except for the one attempt Params.LockFree makes in front of it. With
// lf nil — the paper's profile — a push or pop is a host-slice append or
// truncation and charges nothing: the lock pays for it. Under LockFree
// lf models the stack as a Treiber stack, and every push and pop is one
// tagged-CAS commit on its head word, inside the lock or not.
type listStack struct {
	lists []blocklist.List
	lf    *lfState
}

// push puts l on top of the stack. Under LockFree it writes the new
// top's next link, then commits with one tagged CAS of the head word;
// lost CASes count into ev as EvCASRetry.
func (s *listStack) push(c *machine.CPU, ev *eventCounts, l blocklist.List) {
	if s.lf != nil {
		if r := s.lf.commit(c, func() { c.WriteAddr(l.Head()) }); r > 0 {
			ev[EvCASRetry] += uint64(r)
		}
	}
	s.lists = append(s.lists, l)
}

// pop removes the top list, or reports false on an empty stack. Under
// LockFree it reads the top node's next pointer, then CASes the head
// word from {top, tag} to {next, tag+1}; an empty stack costs only the
// read of the head word.
func (s *listStack) pop(c *machine.CPU, ev *eventCounts) (blocklist.List, bool) {
	n := len(s.lists)
	if s.lf != nil {
		if n == 0 {
			c.Read(s.lf.line)
			return blocklist.List{}, false
		}
		top := s.lists[n-1].Head()
		if r := s.lf.commit(c, func() { c.ReadAddr(top) }); r > 0 {
			ev[EvCASRetry] += uint64(r)
			if tortureBug(TortureBugLFStackABA) && n >= 2 {
				// Armed ABA bug: the contended pop ignores the tag and
				// installs the stale next snapshot it read before its
				// first failed CAS — the classic lost update, dropping
				// the list beneath the top. The leaked blocks never
				// return to their pages, so the torture end-audit's
				// mapped-pages leak floor catches the theft after a
				// full drain.
				s.lists = append(s.lists[:n-2], s.lists[n-1])
				n--
			}
		}
	}
	if n == 0 {
		return blocklist.List{}, false
	}
	out := s.lists[n-1]
	s.lists = s.lists[:n-1]
	return out, true
}

// lfState is the Sim-mode cost model of one Treiber-style CAS freelist
// (Params.LockFree): the global layer's per-node stack of target-sized
// lists.
//
// The modeled protocol is the classic one. The stack head is a single
// word holding {top pointer, tag}; a push or pop
//
//  1. reads the head word (optimistic snapshot),
//  2. prepares its node link — a pop re-reads top's next pointer, a
//     push writes its own node's next pointer — and
//  3. commits with one bus-locked CAS of the head word, retrying from
//     step 1 when a concurrent commit got there first.
//
// The tag occupies the head word beside the pointer and is incremented
// by every successful commit, which is what defeats ABA: a pop whose
// snapshot is {A, t} cannot succeed after the stack went A -> B -> A,
// because the two intervening commits advanced the tag to t+2 even
// though the pointer returned to A. The simulator keeps its freelists
// as host slices, so ABA cannot corrupt them "for real"; the tag's
// observable effect here is that a contended commit retries instead of
// silently installing a stale next pointer. The torture harness's
// planted TortureBugLFStackABA removes exactly that protection to prove
// the end-audit would catch the resulting lost update.
//
// Contention is detected the same way the spinlock model detects
// overlapping holds: a bounded ring of recent commit points (CPU,
// virtual completion time). A commit attempt whose read-to-CAS window
// overlaps another CPU's recorded commit loses its CAS and retries,
// re-paying the read, the prep, and the CAS — the real cost shape of an
// optimistic loop, where the retry re-runs the whole short sequence
// rather than spinning on a flag. Because the simulator executes
// operations run-to-completion in host order, commits by other CPUs
// with later virtual times may already be in the ring when an earlier-
// clocked CPU commits; the overlap test is symmetric in virtual time,
// exactly as the spinlock's hold-interval chase is.
type lfState struct {
	line machine.Line
	tag  uint64

	hist [lfCommits]lfCommit
	n    int // next ring slot

	// maxAt is the highest commit time ever recorded. An attempt whose
	// CAS window starts at or after it overlaps no entry of the ring, so
	// commit skips the scan — the common case off a contended pool.
	maxAt int64
}

// lfCommit is one recorded successful commit.
type lfCommit struct {
	cpu int
	at  int64 // virtual time the CAS completed
}

const (
	// lfCommits bounds the recent-commit ring. Commits further back
	// than the ring cannot conflict with a current attempt in any
	// plausible schedule: the window of one attempt is tens of cycles.
	lfCommits = 32

	// lfMaxRetries caps the modeled retries of one commit. The ring can
	// hold commits with virtual times well ahead of a lagging CPU's
	// clock; the cap keeps a pathological schedule from charging an
	// unbounded chase, mirroring the spinlock model's retry cap.
	lfMaxRetries = 8
)

func newLfState(m *machine.Machine, node int) *lfState {
	return &lfState{line: m.NewMetaLineOn(node)}
}

// commit charges one optimistic read-prep-CAS commit on CPU c and
// returns how many times it retried. prep is charged on every attempt
// (the per-attempt node-link access described above). Only the Sim mode
// of the machine ever calls this — New refuses Params.LockFree on a
// Native machine.
func (s *lfState) commit(c *machine.CPU, prep func()) int {
	retries := 0
	for {
		c.Read(s.line) // head-word snapshot: {top, tag}
		prep()
		start := c.Now()
		c.CAS(s.line)
		end := c.Now()
		conflict := false
		if retries < lfMaxRetries && start < s.maxAt {
			for i := range s.hist {
				h := &s.hist[i]
				if h.cpu != c.ID() && h.at > start && h.at <= end {
					conflict = true
					break
				}
			}
		}
		if !conflict {
			s.tag++ // ABA guard: every successful commit bumps the tag
			s.hist[s.n] = lfCommit{cpu: c.ID(), at: end}
			s.n = (s.n + 1) % lfCommits
			if end > s.maxAt {
				s.maxAt = end
			}
			return retries
		}
		retries++
		c.NoteCASRetry()
	}
}
