package objcache_test

import (
	"testing"

	"kmem/internal/allocif"
	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

func newNodedKMA(t *testing.T, ncpu, nodes int) (*machine.Machine, allocif.NewKMA) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.Nodes = nodes
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	a, err := core.New(m, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return m, allocif.NewKMA{Allocator: a}
}

// TestRemoteGetCarves: a cache moves no objects between CPUs itself. A
// node-0 CPU's Put burst overflows its magazine pair, and a node-1 CPU's
// Gets then carve, every one.
func TestRemoteGetCarves(t *testing.T) {
	m, kma := newNodedKMA(t, 4, 2)
	const size = 64
	k, err := objcache.New(m, kma, "test:remote", size, 8, nil, nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	c0 := m.CPU(0) // node 0
	var c1 *machine.CPU
	for i := 0; i < m.NumCPUs(); i++ {
		if m.NodeOf(i) != c0.Node() {
			c1 = m.CPU(i)
			break
		}
	}
	if c1 == nil {
		t.Fatal("no second node")
	}

	var held []arena.Addr
	for i := 0; i < 128; i++ {
		obj, err := k.Get(c0)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, obj)
	}
	for _, obj := range held {
		k.Put(c0, obj)
	}
	if k.Stats().Releases == 0 {
		t.Fatal("the node-0 Put burst overflowed nothing")
	}

	carves := k.Stats().Carves
	held = held[:0]
	for i := 0; i < 32; i++ {
		obj, err := k.Get(c1)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, obj)
	}
	if got := k.Stats().Carves - carves; got != 32 {
		t.Errorf("32 node-1 Gets carved %d objects, want 32", got)
	}
	for _, obj := range held {
		k.Put(c1, obj)
	}
}

// cacheChurn drives every CPU through Get/Put churn with a small held
// window, so magazines swap and overflow regularly.
func cacheChurn(t *testing.T, m *machine.Machine, k *objcache.Cache, opsPerCPU int) {
	t.Helper()
	ncpu := m.NumCPUs()
	held := make([][]arena.Addr, ncpu)
	ops := make([]int, ncpu)
	m.Run(func(c *machine.CPU) bool {
		id := c.ID()
		if ops[id] >= opsPerCPU {
			for _, obj := range held[id] {
				k.Put(c, obj)
			}
			held[id] = nil
			return false
		}
		ops[id]++
		obj, err := k.Get(c)
		if err != nil {
			t.Fatalf("cpu %d: %v", id, err)
		}
		held[id] = append(held[id], obj)
		if len(held[id]) > 6 {
			k.Put(c, held[id][0])
			held[id] = held[id][1:]
		}
		return true
	})
}

// TestCacheRseqRestarts: over an allocator under Params.Rseq with
// aggressive restart jitter the magazine sequences observably restart,
// the cache stays coherent (every Get still returns a constructed
// object), and cross-CPU drains ride the interference path.
func TestCacheRseqRestarts(t *testing.T) {
	m, _, kma := newAllocator(t, 4, core.Params{Rseq: true})
	m.SetScheduleJitter(&machine.JitterConfig{Seed: 11, RestartEvery: 3})
	const size = 96
	k, err := objcache.New(m, kma, "test:rseq", size, 8, patternCtor(size), nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	cacheChurn(t, m, k, 1000)
	st := k.Stats()
	if st.RseqRestarts == 0 {
		t.Fatal("no magazine sequence restarts under RestartEvery=3 jitter")
	}
	// The interference path: a drain aborts in-flight sequences rather
	// than deadlocking or tearing the pair.
	k.Drain(m.CPU(0))
	obj, err := k.Get(m.CPU(0))
	if err != nil {
		t.Fatal(err)
	}
	checkConstructed(t, m.Mem(), obj, size)
	k.Put(m.CPU(0), obj)
	if got, want := k.Stats().Gets, st.Gets+1; got != want {
		t.Errorf("gets = %d, want %d", got, want)
	}
}

// TestCacheRunsAllocatorSection: a cache brackets its magazines with its
// allocator's per-CPU section, so its protocol is the allocator's. Under
// either profile a warm Get/Put pair costs two of the allocator's
// sections plus a body that does not depend on the profile: interrupt
// disable's 2 insns + IntrCycles under the Paper profile, the rseq
// arm + commit's 2 insns + CommitCycles under Params.Rseq. And New
// reserves one metadata line per CPU, the magazine pair's, and no
// section line of its own.
func TestCacheRunsAllocatorSection(t *testing.T) {
	type cost struct{ cycles, insns int64 }
	var bodies []cost
	for _, rseq := range []bool{false, true} {
		m, a, kma := newAllocator(t, 2, core.Params{Rseq: rseq})
		before := m.NewMetaLine()
		k, err := objcache.New(m, kma, "test:section", 64, 8, nil, nil, objcache.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(m.NewMetaLine() - before - 1); got != m.NumCPUs() {
			t.Errorf("rseq=%v: New reserved %d metadata lines on %d CPUs, want one per CPU", rseq, got, m.NumCPUs())
		}
		c := m.CPU(0)
		measure := func(f func()) cost {
			t0, i0 := c.Now(), c.Stats().Instructions
			f()
			return cost{c.Now() - t0, int64(c.Stats().Instructions - i0)}
		}
		pair := func() {
			obj, err := k.Get(c)
			if err != nil {
				t.Fatal(err)
			}
			k.Put(c, obj)
		}
		pair()
		pair() // warm the magazine line
		sect := measure(func() {
			crit := a.CPUSection(c.ID())
			crit.Enter(c)
			crit.Exit(c)
		})
		want := cost{machine.IntrCycles, 2}
		if rseq {
			want = cost{2*machine.CyclesPerInsn + machine.CommitCycles, 2}
		}
		if sect != want {
			t.Errorf("rseq=%v: the allocator's section costs %+v, want %+v", rseq, sect, want)
		}
		p := measure(pair)
		bodies = append(bodies, cost{p.cycles - 2*sect.cycles, p.insns - 2*sect.insns})
		if st := k.Stats(); st.Carves != 1 || st.RseqRestarts != 0 {
			t.Fatalf("rseq=%v: warm pairs carved %d times and restarted %d", rseq, st.Carves, st.RseqRestarts)
		}
	}
	if bodies[0] != bodies[1] {
		t.Errorf("a warm pair less two sections costs %+v under the Paper profile, %+v under Rseq: the cache ran a section other than its allocator's", bodies[0], bodies[1])
	}
}
