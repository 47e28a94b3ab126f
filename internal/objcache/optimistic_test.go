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

// TestPerNodeDepots: magazine exchanges stay node-local. A CPU filling
// its node's depot leaves other nodes' depots empty, so a first Get on
// another node carves instead of raiding a remote depot — and the
// remote depot's stock is untouched afterwards.
func TestPerNodeDepots(t *testing.T) {
	m, kma := newNodedKMA(t, 4, 2)
	const size = 64
	k, err := objcache.New(m, kma, "test:depots", size, 8, nil, nil, objcache.Opts{})
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

	// Fill node 0's depot: get a working set, put it all back so full
	// magazines retire into the depot.
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
	stocked := k.Stats().DepotFull
	if stocked == 0 {
		t.Fatal("put burst retired no full magazines into the depot")
	}
	carves := k.Stats().Carves

	// Node 1's Gets must not consume node 0's stock.
	held = held[:0]
	for i := 0; i < 32; i++ {
		obj, err := k.Get(c1)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, obj)
	}
	st := k.Stats()
	if st.DepotFull != stocked {
		t.Errorf("node 1 Gets drained the remote depot: %d -> %d full magazines", stocked, st.DepotFull)
	}
	if st.Carves == carves {
		t.Error("node 1 Gets carved nothing despite an empty home depot")
	}
	for _, obj := range held {
		k.Put(c1, obj)
	}

	// A node-0 CPU still enjoys the stock: its next misses exchange, not
	// carve.
	carves = k.Stats().Carves
	for i := 0; i < 32; i++ {
		obj, err := k.Get(c0)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = obj
	}
	if got := k.Stats().Carves; got != carves {
		t.Errorf("node 0 Gets carved %d buffers despite %d stocked magazines", got-carves, stocked)
	}
	for _, obj := range held {
		k.Put(c0, obj)
	}
}

// cacheChurn drives every CPU through Get/Put churn with a small held
// window, forcing regular depot exchanges.
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

// TestCacheRseqRestarts: under Opts.Rseq with aggressive restart jitter
// the magazine sequences observably restart, the cache stays coherent
// (every Get still returns a constructed object), and cross-CPU drains
// ride the interference path.
func TestCacheRseqRestarts(t *testing.T) {
	m, kma := newNodedKMA(t, 4, 1)
	m.SetScheduleJitter(&machine.JitterConfig{Seed: 11, RestartEvery: 3})
	const size = 96
	k, err := objcache.New(m, kma, "test:rseq", size, 8, patternCtor(size), nil,
		objcache.Opts{Rseq: true})
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
