package core

import (
	"reflect"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// pinnedMix is the allocator-level schedule fingerprint pinned by
// TestSchedHashPinned: the machine-level quantities (who ran when, final
// clocks, bus and interconnect transactions) plus the allocator counters
// that prove the run reached the paths it is meant to hold still.
type pinnedMix struct {
	hash   uint64
	clocks []int64
	bus    uint64
	ic     uint64

	restarts, casRetries uint64 // summed over CPUs
	remoteMisses         uint64
	trimmed              int64 // pages Trim released, summed
	decommits            uint64
	reclaimSteps         uint64
	lockSpin             int64 // the test's own contended spinlock
}

// pinnedMixRun drives 8 CPUs on 2 nodes over the Rseq + LockFree +
// LazySpans + Pressure allocator, short of physical memory, with seeded
// jitter (so sequences restart), blocks handed across nodes, a contended
// spinlock in the workload itself, large requests and periodic Trim.
func pinnedMixRun(t *testing.T) pinnedMix {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 8
	cfg.Nodes = 2
	cfg.MemBytes = 128 << 20
	cfg.PhysPages = 640 // two 64 MB vmblks' headers take 256
	m := machine.New(cfg)
	m.SetScheduleJitter(&machine.JitterConfig{Seed: 20260929, RestartEvery: 5})
	a, err := New(m, Params{
		Rseq:      true,
		LockFree:  true,
		LazySpans: true,
		Pressure:  &PressureConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableSchedHash()

	type held struct {
		addr arena.Addr
		size uint64
	}
	const opsPerCPU = 2500
	ncpu := cfg.NumCPUs
	var (
		ops     = make([]int, ncpu)
		rng     = make([]uint64, ncpu)
		mine    = make([][]held, ncpu)
		mailbox = make([][]held, ncpu) // blocks another CPU must free
		lk      = machine.NewSpinLockOn(m, 1)
		counter = m.NewMetaLineOn(1)
		sizes   = []uint64{16, 64, 64, 256, 256, 1024, 4096, 4096, 3 * 4096, 9 * 4096}
		out     pinnedMix
	)
	for i := range rng {
		rng[i] = uint64(i)*0x9e3779b97f4a7c15 + 7
	}
	m.Run(func(c *machine.CPU) bool {
		id := c.ID()
		for _, h := range mailbox[id] {
			a.Free(c, h.addr, h.size)
		}
		mailbox[id] = mailbox[id][:0]
		if ops[id] >= opsPerCPU {
			for _, h := range mine[id] {
				a.Free(c, h.addr, h.size)
			}
			mine[id] = nil
			return false
		}
		ops[id]++
		rng[id] = rng[id]*6364136223846793005 + 1442695040888963407
		r := rng[id] >> 33

		switch {
		case r%8 < 5:
			size := sizes[r/8%uint64(len(sizes))]
			b, err := a.Alloc(c, size)
			if err != nil {
				// Out of frames: give some back and carry on.
				for i := 0; i < 4 && len(mine[id]) > 0; i++ {
					h := mine[id][0]
					mine[id] = mine[id][1:]
					a.Free(c, h.addr, h.size)
				}
				break
			}
			mine[id] = append(mine[id], held{b, size})
		case len(mine[id]) > 0:
			h := mine[id][0]
			mine[id] = mine[id][1:]
			if r%3 == 0 {
				// Hand the block to a CPU on the other node to free.
				to := (id + 4 + int(r/64%4)) % ncpu
				mailbox[to] = append(mailbox[to], h)
			} else {
				a.Free(c, h.addr, h.size)
			}
		}
		if len(mine[id]) > 40 {
			h := mine[id][0]
			mine[id] = mine[id][1:]
			a.Free(c, h.addr, h.size)
		}
		if r%4 == 1 {
			lk.Acquire(c)
			c.Atomic(counter)
			c.Work(int64(20 + r%50))
			lk.Release(c)
		}
		if id%4 == 0 && ops[id]%60 == 0 {
			out.trimmed += a.Trim(c, int64(4+r%12))
		}
		return true
	})

	out.hash = m.SchedHash()
	out.bus = m.BusTransactions()
	out.ic = m.InterconnectTransactions()
	for i := 0; i < ncpu; i++ {
		st := m.CPU(i).Stats()
		out.clocks = append(out.clocks, st.Cycles)
		out.restarts += st.Restarts
		out.casRetries += st.CASRetries
		out.remoteMisses += st.RemoteMisses
	}
	out.lockSpin = lk.Stats().SpinCycles
	st := a.Stats(m.CPU(0))
	out.decommits = st.VM.PagesDecommit
	out.reclaimSteps = st.Pressure.ReclaimSteps
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSchedHashPinned is the allocator-level half of the bit-identity
// pin (internal/machine has the primitive-level half): the constants were
// captured on the commit before the simulator's host-cost rewrite — the
// span-granular decommit pass, the indexed occupancy histories, the typed
// run heap — and must never move unless a PR sets out to change the cost
// model and says so. PR 23 did: a node-pure cache spills in one putList
// (DESIGN.md §17), which moves every multi-node run. PR 24 did again:
// frees no longer refile their page in the radix buckets (lazy filing,
// DESIGN.md §5), which every run that reaches the page layer feels. PR 25
// did once more: a refill moves each block once and a spill is one trip
// to the page layer (DESIGN.md §5). It moved again when a freed page's
// unmap left the page pool's and the vmblk layer's locks (DESIGN.md §11):
// the mix's lazy spans unmap nothing on free, but every page release now
// takes the vmblk lock after the pool's is dropped instead of inside it.
// It moved once more when a spill that finds the pool's lock held
// resolves its blocks before taking it and applies them newest first
// (DESIGN.md §5); the mix's lazy spans keep their commit under the vmblk
// lock, so mapping an eager span after the lock moves nothing here. It
// moved again when the page layer lost LockFree's parked-page stack
// (DESIGN.md §5): the mix runs LockFree, so a page whose last block
// comes home is now released at once, as under every other profile. It
// moved again when a refill began handing a fresh page's whole lists
// out as unlinked runs, each linked by the CPU that takes it, outside
// the global and page pools' locks (DESIGN.md §5). It moved again when
// every page came to be cut in one descending order (DESIGN.md §5): the
// mix's lazy spans never arm a ready stock, but a drawn page's uncarved
// tail now leaves highest block first, where it ascended, so the blocks
// a refill hands out land in another order. It moved again when
// LockFree's global layer became the paper's locked body with one CAS
// attempt in front of the lock for a get or a put (DESIGN.md §14): the
// mix runs LockFree, so its refills, bucket regroups, spills and
// cross-node steals now run under the pool's lock.
func TestSchedHashPinned(t *testing.T) {
	got := pinnedMixRun(t)
	if got.restarts == 0 || got.casRetries == 0 || got.remoteMisses == 0 ||
		got.trimmed == 0 || got.reclaimSteps == 0 || got.lockSpin == 0 {
		t.Errorf("the pinned mix no longer reaches every path: %+v", got)
	}
	if !reflect.DeepEqual(got, pinnedMixWant) {
		t.Errorf("virtual results moved\n got  %#v\n want %#v", got, pinnedMixWant)
	}
}

var pinnedMixWant = pinnedMix{
	hash:   0x94068467386598f3,
	clocks: []int64{46046080, 45320429, 44683747, 46146114, 46046938, 44385396, 46334616, 45999257},
	bus:    0x1a7aa1, ic: 0xc8f19,
	restarts: 0x1f51, casRetries: 0x44, remoteMisses: 0x6e485,
	trimmed: 458, decommits: 0x2ee5, reclaimSteps: 0x53ef, lockSpin: 41303,
}

// TestChurnMetaLinesPinned pins the metadata lines of the 128-byte
// per-CPU caches on the benchmark's churn machine (8 CPUs, one node,
// 32 MB, 4,096 pages, the Paper profile). The simulated cache is direct
// mapped with 256 sets, and churn's throughput hangs on one conflict:
// CPU 6's cache line, 0x60, shares set 96 with a block on CPU 6's ring,
// and the two evict each other on every op (about 18,000 misses each in
// a 2-second run, no other line above 16). Allocating one to thirteen
// more metadata lines before New moved churn from 6.96 M to 20 M ops/vs
// (EXPERIMENTS E35). A change that allocates a metadata line earlier, or
// one fewer, moves every churn number by that much without touching
// its fast path.
func TestChurnMetaLinesPinned(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs, cfg.Nodes, cfg.MemBytes, cfg.PhysPages = 8, 1, 32<<20, 4096
	a, err := New(machine.New(cfg), Params{})
	if err != nil {
		t.Fatal(err)
	}
	cls, _ := a.classOf(128)
	want := []uint64{0x2a, 0x33, 0x3c, 0x45, 0x4e, 0x57, 0x60, 0x69}
	for cpu, w := range want {
		if got := uint64(a.percpu[cpu][cls].line) &^ (1 << 63); got != w {
			t.Errorf("CPU %d's 128-byte cache is metadata line %#x, want %#x: churn's v_ops_per_s depends on these lines' cache sets", cpu, got, w)
		}
	}
}
