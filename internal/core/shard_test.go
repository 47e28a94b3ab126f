package core

import (
	"sync"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// TestShardStagingAndFlush walks the sharded remote-free path end to
// end: remote frees stage in the per-node shard inside the CPU's
// critical section alone, the shard flushes to its home pool in one
// batched putList on reaching target, and the home memo answers repeat
// lookups.
func TestShardStagingAndFlush(t *testing.T) {
	a, m := numaAllocator(t, 4, 2, 1024, Params{})
	c0, c2 := m.CPU(0), m.CPU(2)
	cls := a.classFor(64)
	target := a.Target(cls)

	var bs []arena.Addr
	for i := 0; i < target; i++ {
		b, err := a.Alloc(c0, 64)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	// Refills pre-stock the home pool; the flush assertions below are on
	// the deltas.
	held0 := a.classes[cls].globals[0].blocksHeld(c0)
	held1 := a.classes[cls].globals[1].blocksHeld(c0)

	// One short of target: everything stays staged, nothing reaches the
	// home pool, and main/aux stay empty (remote blocks never enter the
	// classic cache halves).
	for _, b := range bs[:target-1] {
		a.Free(c2, b, 64)
	}
	pc := &a.percpu[2][cls]
	if got := a.shardsOf(2, cls)[0].Len(); got != target-1 {
		t.Fatalf("shard holds %d blocks, want %d staged", got, target-1)
	}
	if !pc.main.Empty() || !pc.aux.Empty() {
		t.Fatal("remote frees leaked into main/aux")
	}
	st := a.Stats(c0).Classes[cls]
	if st.ShardFlushes != 0 || st.RemotePuts != 0 {
		t.Fatalf("premature flush: %d flushes, %d remote puts", st.ShardFlushes, st.RemotePuts)
	}
	checkOK(t, a)

	// The target-th free flushes the whole shard home in one putList.
	a.Free(c2, bs[target-1], 64)
	if got := a.shardsOf(2, cls)[0].Len(); got != 0 {
		t.Fatalf("shard holds %d blocks after flush", got)
	}
	st = a.Stats(c0).Classes[cls]
	if st.ShardFlushes != 1 {
		t.Fatalf("ShardFlushes = %d, want 1", st.ShardFlushes)
	}
	if st.RemotePuts != 1 {
		t.Fatalf("RemotePuts = %d, want exactly one batched trip", st.RemotePuts)
	}
	if st.RemoteFrees != uint64(target) {
		t.Fatalf("RemoteFrees = %d, want %d blocks carried", st.RemoteFrees, target)
	}
	// All frees after the first hit the 1-entry memo (same vmblk).
	if st.HomeMemoHits != uint64(target-1) {
		t.Fatalf("HomeMemoHits = %d, want %d", st.HomeMemoHits, target-1)
	}
	// Home-node invariant: the blocks are back in node 0's pool.
	if n := a.classes[cls].globals[0].blocksHeld(c0); n != held0+target {
		t.Fatalf("node 0 pool holds %d blocks, want %d", n, held0+target)
	}
	if n := a.classes[cls].globals[1].blocksHeld(c0); n != held1 {
		t.Fatalf("node 1 pool holds %d blocks, want %d", n, held1)
	}
	checkOK(t, a)
	a.DrainAll(c0)
	checkOK(t, a)
}

// TestShardBatchingReducesRemotePuts holds the shards' batching
// invariant at 8 CPUs / 4 nodes with all-to-all producer/consumer
// handoff: every remote putList lock trip is one shard flush carrying
// exactly target blocks, and no main/aux spill ever routes a block
// (EXPERIMENTS.md E12).
func TestShardBatchingReducesRemotePuts(t *testing.T) {
	a, m := numaAllocator(t, 8, 4, 2048, Params{})
	ck, err := a.GetCookie(128)
	if err != nil {
		t.Fatal(err)
	}
	// Each CPU allocates a burst well past its cache capacity; three
	// quarters of each burst is freed by the allocator's same-node
	// partner (local frees) and a quarter round-robin across all 8
	// CPUs. Every freeing CPU therefore sees a stream of blocks with
	// occasional remote homes scattered across all four nodes, which the
	// shards coalesce into whole per-node batches.
	for r := 0; r < 40; r++ {
		free := make([][]arena.Addr, 8)
		// k outer, cpu inner: each freer's list interleaves blocks from
		// many producers, so consecutive frees carry different home nodes.
		for k := 0; k < 40; k++ {
			for cpu := 0; cpu < 8; cpu++ {
				b, err := a.AllocCookie(m.CPU(cpu), ck)
				if err != nil {
					t.Fatal(err)
				}
				freer := cpu ^ 1 // same-node partner
				if k%4 == 3 {
					freer = (cpu + k) % 8 // all-to-all
				}
				free[freer] = append(free[freer], b)
			}
		}
		for cpu := 0; cpu < 8; cpu++ {
			c := m.CPU(cpu)
			for _, b := range free[cpu] {
				a.FreeCookie(c, b, ck)
			}
		}
	}
	cls := a.classFor(128)
	st := a.Stats(m.CPU(0)).Classes[cls]
	target := uint64(a.Target(cls))
	t.Logf("%d shard flushes, %d remote putList trips, %d remote frees at target %d",
		st.ShardFlushes, st.RemotePuts, st.RemoteFrees, target)
	if st.ShardFlushes == 0 {
		t.Fatal("degenerate run: no shard flushed")
	}
	if st.RemotePuts != st.ShardFlushes {
		t.Errorf("RemotePuts = %d, want one per shard flush (%d)", st.RemotePuts, st.ShardFlushes)
	}
	if st.RemoteFrees != target*st.ShardFlushes {
		t.Errorf("RemoteFrees = %d, want target %d x %d flushes", st.RemoteFrees, target, st.ShardFlushes)
	}
	if st.NodeSteals != 0 || st.SpillRouted != 0 {
		t.Errorf("NodeSteals = %d, SpillRouted = %d: a node-pure run must neither steal nor route", st.NodeSteals, st.SpillRouted)
	}
	a.DrainAll(m.CPU(0))
	checkOK(t, a)
}

// TestShardPressureClampsFlushThreshold: under PressureLow the shard
// flush threshold follows effTarget, so staged remote blocks reach
// their home pools in half the time.
func TestShardPressureClampsFlushThreshold(t *testing.T) {
	var ec EventCounter
	a, m := numaAllocator(t, 4, 2, 1024, Params{
		Hook: ec.Hook(),
		// LowPages just under capacity: the pool is under PressureLow from
		// the first vmblk map onward.
		Pressure: &PressureConfig{LowPages: 1020, MinPages: 1},
	})
	c0, c2 := m.CPU(0), m.CPU(2)
	cls := a.classFor(64)
	target := a.Target(cls)

	var bs []arena.Addr
	for i := 0; i < target; i++ {
		b, err := a.Alloc(c0, 64)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	if a.Pressure() != PressureLow {
		t.Fatalf("pressure level %v, want PressureLow", a.Pressure())
	}
	clamped := a.effTarget(target)
	if clamped >= target {
		t.Fatalf("effTarget %d not clamped below target %d", clamped, target)
	}
	for _, b := range bs[:clamped] {
		a.Free(c2, b, 64)
	}
	if got := ec.Count(EvShardFlush); got != uint64(clamped) {
		t.Fatalf("flushed %d blocks after %d clamped-threshold frees, want %d",
			got, clamped, clamped)
	}
	for _, b := range bs[clamped:] {
		a.Free(c2, b, 64)
	}
	a.DrainAll(c0)
	checkOK(t, a)
}

// TestShardDrainCPU: DrainCPU must flush partially-filled shards
// straight to their home pools, leaving nothing staged.
func TestShardDrainCPU(t *testing.T) {
	a, m := numaAllocator(t, 4, 2, 1024, Params{})
	c0, c2 := m.CPU(0), m.CPU(2)
	cls := a.classFor(64)
	target := a.Target(cls)

	var bs []arena.Addr
	for i := 0; i < target-1; i++ {
		b, err := a.Alloc(c0, 64)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	for _, b := range bs {
		a.Free(c2, b, 64)
	}
	if a.shardsOf(2, cls)[0].Empty() {
		t.Fatal("nothing staged before drain")
	}
	held0 := a.classes[cls].globals[0].blocksHeld(c0)
	a.DrainCPU(c2, 2)
	if !a.shardsOf(2, cls)[0].Empty() {
		t.Fatalf("shard still holds %d blocks after DrainCPU", a.shardsOf(2, cls)[0].Len())
	}
	if n := a.classes[cls].globals[0].blocksHeld(c0); n != held0+target-1 {
		t.Fatalf("node 0 pool holds %d blocks after drain, want %d", n, held0+target-1)
	}
	checkOK(t, a)
	a.DrainAll(c0)
	checkOK(t, a)
}

// TestShardReclaimFindsStagedBlocks: blocks staged in remote shards must
// be reachable by the low-memory reclaim path — a starving allocation
// must be able to get the last blocks even when they sit in another
// CPU's shard.
func TestShardReclaimFindsStagedBlocks(t *testing.T) {
	// Small physical memory: one vmblk's pages, nearly all consumed.
	a, m := numaAllocator(t, 4, 2, 48, Params{})
	c0, c2 := m.CPU(0), m.CPU(2)

	// Consume pages from node 0 until the machine is nearly dry.
	var live []arena.Addr
	for {
		b, err := a.Alloc(c0, 4096)
		if err != nil {
			break
		}
		live = append(live, b)
	}
	if len(live) < 4 {
		t.Fatalf("only %d pages allocated before exhaustion", len(live))
	}
	// Free one block from CPU 2: it stages in the shard (target for 4096
	// is 2, so one free stays staged).
	a.Free(c2, live[len(live)-1], 4096)
	live = live[:len(live)-1]

	// A node-0 allocation with no free pages anywhere must reclaim —
	// which flushes CPU 2's shard home, frees the page, and lets the
	// retry carve it again — rather than fail.
	b, err := a.Alloc(c0, 4096)
	if err != nil {
		t.Fatalf("alloc after staged free failed: %v (reclaim did not reach the shard)", err)
	}
	a.Free(c0, b, 4096)
	for _, x := range live {
		a.Free(c0, x, 4096)
	}
	a.DrainAll(c0)
	checkOK(t, a)
}

// TestNativeShardRace drives the full sharded cross-node path under the
// race detector: producers on node 0, consumers on node 1, while a
// fifth CPU concurrently drains every CPU's caches (the IPI-like remote
// drain) and snapshots Stats. Quiesce, then audit.
func TestNativeShardRace(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 6
	cfg.Nodes = 2
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 4096
	m := machine.New(cfg)
	a, err := New(m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := a.GetCookie(128)
	if err != nil {
		t.Fatal(err)
	}

	const perProducer = 4000
	chans := [2]chan arena.Addr{
		make(chan arena.Addr, 256),
		make(chan arena.Addr, 256),
	}
	var work sync.WaitGroup
	for p := 0; p < 2; p++ { // CPUs 0,1 = node 0
		work.Add(1)
		go func(c *machine.CPU, out chan<- arena.Addr) {
			defer work.Done()
			defer close(out)
			for i := 0; i < perProducer; i++ {
				b, err := a.AllocCookie(c, ck)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				out <- b
			}
		}(m.CPU(p), chans[p])
	}
	for q := 0; q < 2; q++ { // CPUs 3,4 = node 1
		work.Add(1)
		go func(c *machine.CPU, in <-chan arena.Addr) {
			defer work.Done()
			for b := range in {
				a.FreeCookie(c, b, ck)
			}
		}(m.CPU(3+q), chans[q])
	}
	done := make(chan struct{})
	drained := make(chan struct{})
	go func() { // CPU 5 = node 1: concurrent drains and snapshots
		defer close(drained)
		c := m.CPU(5)
		for {
			select {
			case <-done:
				return
			default:
			}
			for cpu := 0; cpu < 6; cpu++ {
				a.DrainCPU(c, cpu)
			}
			_ = a.Stats(c)
		}
	}()
	work.Wait()
	close(done)
	<-drained

	c := m.CPU(0)
	st := a.Stats(c).Classes[a.classFor(128)]
	if st.RemoteFrees == 0 {
		t.Fatal("no remote frees in a cross-node producer/consumer run")
	}
	a.DrainAll(c)
	checkOK(t, a)
}
