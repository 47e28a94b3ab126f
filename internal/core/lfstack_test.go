package core

import (
	"math/rand"
	"testing"

	"kmem/internal/machine"
)

// commitFullScan is lfState.commit as it stood before the maxAt
// shortcut: every attempt scans the whole ring. Kept as the reference
// the shortcut is held to.
func (s *lfState) commitFullScan(c *machine.CPU, prep func()) int {
	retries := 0
	for {
		c.Read(s.line)
		prep()
		start := c.Now()
		c.CAS(s.line)
		end := c.Now()
		conflict := false
		if retries < lfMaxRetries {
			for i := range s.hist {
				h := &s.hist[i]
				if h.cpu != c.ID() && h.at > start && h.at <= end {
					conflict = true
					break
				}
			}
		}
		if !conflict {
			s.tag++
			s.hist[s.n] = lfCommit{cpu: c.ID(), at: end}
			s.n = (s.n + 1) % lfCommits
			return retries
		}
		retries++
		c.NoteCASRetry()
	}
}

// TestLfCommitShortcutMatchesFullScan drives commit and its full-scan
// reference with one seeded schedule on twin machines — CPUs leapfrog
// by a few cycles, so CAS windows overlap recorded commits, and now and
// then one CPU jumps far ahead, so the others commit in its past — and
// demands the same answer every time: retries, the CPU's clock after
// the commit, the tag and the ring.
func TestLfCommitShortcutMatchesFullScan(t *testing.T) {
	const ncpu = 4
	build := func() (*machine.Machine, *lfState) {
		cfg := machine.DefaultConfig()
		cfg.NumCPUs = ncpu
		m := machine.New(cfg)
		return m, newLfState(m, 0)
	}
	for seed := int64(1); seed <= 4; seed++ {
		m1, s1 := build()
		m2, s2 := build()
		rng := rand.New(rand.NewSource(seed))
		var retried, skipped int
		for i := 0; i < 20000; i++ {
			cpu := rng.Intn(ncpu)
			idle := rng.Int63n(48)
			if rng.Intn(64) == 0 {
				idle += 4000
			}
			c1, c2 := m1.CPU(cpu), m2.CPU(cpu)
			c1.Idle(idle)
			c2.Idle(idle)
			if c1.Now() >= s1.maxAt {
				skipped++ // the window starts later still: the scan is skipped
			}
			r1 := s1.commit(c1, func() { c1.Work(2) })
			r2 := s2.commitFullScan(c2, func() { c2.Work(2) })
			if r1 != r2 || c1.Now() != c2.Now() || s1.tag != s2.tag || s1.hist != s2.hist || s1.n != s2.n {
				t.Fatalf("seed %d commit %d on cpu %d: shortcut %d retries, clock %d, tag %d; full scan %d retries, clock %d, tag %d",
					seed, i, cpu, r1, c1.Now(), s1.tag, r2, c2.Now(), s2.tag)
			}
			retried += r1
		}
		if retried == 0 || skipped == 0 || skipped == 20000 {
			t.Fatalf("seed %d: %d retries, %d of 20000 scans skipped — one side of the shortcut never ran", seed, retried, skipped)
		}
	}
}
