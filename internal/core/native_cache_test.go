package core_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

// TestNativeForeignDuringHits runs one owner goroutine on CPU 0 that
// mixes 64-byte cookie allocations and frees with Gets and Puts of a
// typed cache's 256-byte objects — hits in both layers, with refills and
// carves after each drain — while a foreign goroutine runs DrainCPU,
// Cache.Drain and Stats against CPU 0, under both profiles. The class
// caches and the magazines are guarded by CPU 0's one section, so the
// race detector convicts a foreign section that does not exclude the
// owner from either. Every snapshot must count between 0 and ring cookie
// blocks live on CPU 0 (allocations less frees), and at quiescence
// exactly the blocks the owner holds; once the magazines are drained,
// the cache's class counts exactly the objects the owner holds.
func TestNativeForeignDuringHits(t *testing.T) {
	const ring = 16
	ops := 200_000
	if testing.Short() {
		ops /= 10
	}
	for _, rseq := range []bool{false, true} {
		cfg := machine.DefaultConfig()
		cfg.Mode = machine.Native
		cfg.NumCPUs = 2
		m := machine.New(cfg)
		a, err := core.New(m, core.Params{Rseq: rseq})
		if err != nil {
			t.Fatal(err)
		}
		ck, err := a.GetCookie(64)
		if err != nil {
			t.Fatal(err)
		}
		k, err := objcache.New(m, a, "test:foreign", 256, 8, nil, nil, objcache.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		classOf := func(size uint32) int {
			for cls, cs := range a.Stats(m.CPU(1)).Classes {
				if cs.Size == size {
					return cls
				}
			}
			t.Fatalf("no %d-byte class", size)
			return -1
		}
		blockCls, objCls := classOf(ck.Size()), classOf(uint32(k.Capacity()))
		if blockCls == objCls {
			t.Fatal("cookie blocks and cache objects share a class")
		}
		live := func(st core.Stats, cls int) int64 {
			return int64(st.Classes[cls].Allocs) - int64(st.Classes[cls].Frees)
		}
		// Stats sums every CPU; CPU 1 only drains and reads, so the cookie
		// blocks it sees are CPU 0's.
		var blocks, objs []arena.Addr
		var done atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			c := m.CPU(0)
			for op := 0; op < ops; op++ {
				cache := op%2 == 1
				held := &blocks
				if cache {
					held = &objs
				}
				if n := len(*held); n == ring || (n > 0 && op%3 == 0) {
					if cache {
						k.Put(c, objs[n-1])
					} else {
						a.FreeCookie(c, blocks[n-1], ck)
					}
					*held = (*held)[:n-1]
					continue
				}
				var b arena.Addr
				var err error
				if cache {
					b, err = k.Get(c)
				} else {
					b, err = a.AllocCookie(c, ck)
				}
				if err != nil {
					t.Error(err)
					return
				}
				*held = append(*held, b)
			}
		}()
		go func() {
			defer wg.Done()
			c := m.CPU(1)
			for i := 0; !done.Load(); i++ {
				switch i % 3 {
				case 0:
					a.DrainCPU(c, 0)
				case 1:
					k.Drain(c)
				default:
					if n := live(a.Stats(c), blockCls); n < 0 || n > ring {
						t.Errorf("rseq=%v: a snapshot counts %d blocks live on CPU 0, want 0..%d", rseq, n, ring)
						return
					}
				}
			}
		}()
		wg.Wait()
		c := m.CPU(1)
		if n := live(a.Stats(c), blockCls); n != int64(len(blocks)) {
			t.Errorf("rseq=%v: at quiescence Stats counts %d blocks live, the owner holds %d", rseq, n, len(blocks))
		}
		k.Drain(c)
		if n, carved := live(a.Stats(c), objCls), k.Stats().Live; n != int64(len(objs)) || carved != uint64(len(objs)) {
			t.Errorf("rseq=%v: drained, Stats counts %d cache blocks and the cache %d objects live, the owner holds %d", rseq, n, carved, len(objs))
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNativeOwnerOverlapPanics holds CPU 0's section as its owner, the
// way a second goroutine driving CPU 0 would, on a Native machine. Every
// owner operation on CPU 0 — an allocation, a free, and a typed cache's
// Get and Put — then panics on entering the section instead of waiting,
// and leaves the allocator as it was: after Exit each one runs and the
// allocator is consistent.
func TestNativeOwnerOverlapPanics(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 2
	m := machine.New(cfg)
	a, err := core.New(m, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	k, err := objcache.New(m, a, "test:overlap", 256, 8, nil, nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	blk, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		name string
		run  func()
	}{
		{"Alloc", func() {
			b, err := a.Alloc(c, 64)
			if err == nil {
				a.Free(c, b, 64)
			}
		}},
		{"Free", func() { a.Free(c, blk, 64) }},
		{"Get", func() {
			o, err := k.Get(c)
			if err == nil {
				k.Put(c, o)
			}
		}},
		{"Put", func() { k.Put(c, obj) }},
	}
	crit := a.CPUSection(0)
	crit.Enter(c)
	for _, op := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s entered CPU 0's section while another owner held it", op.name)
				}
			}()
			op.run()
		}()
	}
	crit.Exit(c)
	for _, op := range ops {
		op.run()
	}
	k.Drain(c)
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
