package alloctest

import (
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

// RunObjCache executes the typed object-cache lifecycle suite over an
// adapter of the paper's allocator (the only backing a cache takes):
// the cache contract (ctor exactly once per carve, constructed state
// visible across Get/Put, dtor before every release, coloring inside
// the backing capacity) must hold over each.
func RunObjCache(t *testing.T, f Factory) {
	t.Run("ObjCacheCtorOnce", func(t *testing.T) { testObjCacheCtorOnce(t, f) })
	t.Run("ObjCacheConstructedState", func(t *testing.T) { testObjCacheConstructed(t, f) })
	t.Run("ObjCacheDtorBeforeRelease", func(t *testing.T) { testObjCacheDtor(t, f) })
	t.Run("ObjCacheColorBounds", func(t *testing.T) { testObjCacheColors(t, f) })
}

const (
	ocSize    = 72
	ocPattern = 0x5e
)

func ocCtor(c *machine.CPU, mem *arena.Arena, obj arena.Addr) {
	mem.Fill(obj, ocSize, ocPattern)
}

func newObjCache(t *testing.T, inst Instance, name string, dtor objcache.Dtor) *objcache.Cache {
	t.Helper()
	k, err := objcache.New(inst.M, inst.A.(objcache.Backing), name, ocSize, 8, ocCtor, dtor,
		objcache.Opts{MinBackSize: ocSize + 64})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// testObjCacheCtorOnce: a single buffer cycled many times is constructed
// exactly once.
func testObjCacheCtorOnce(t *testing.T, f Factory) {
	inst := f(t, 1, 2048)
	k := newObjCache(t, inst, "alloctest:once", nil)
	c := inst.M.CPU(0)
	for i := 0; i < 100; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		k.Put(c, obj)
	}
	st := k.Stats()
	if st.CtorRuns != 1 {
		t.Fatalf("ctor ran %d times cycling one buffer, want 1", st.CtorRuns)
	}
	if st.CtorSkips != 99 {
		t.Fatalf("ctor skips = %d, want 99", st.CtorSkips)
	}
}

// testObjCacheConstructed: every Get observes the constructed pattern,
// including Gets served through the depot, and dirtying + restoring
// before Put preserves the contract.
func testObjCacheConstructed(t *testing.T, f Factory) {
	inst := f(t, 1, 2048)
	k := newObjCache(t, inst, "alloctest:state", nil)
	c := inst.M.CPU(0)
	mem := inst.M.Mem()
	for round := 0; round < 4; round++ {
		objs := make([]arena.Addr, 0, 40)
		for i := 0; i < 40; i++ { // deep enough to cycle magazines + depot
			obj, err := k.Get(c)
			if err != nil {
				t.Fatal(err)
			}
			if off, ok := mem.CheckFill(obj, ocSize, ocPattern); !ok {
				t.Fatalf("round %d: object %#x unconstructed at offset %d", round, uint64(obj), off)
			}
			mem.Fill(obj, ocSize, byte(round)) // dirty
			objs = append(objs, obj)
		}
		for _, obj := range objs {
			mem.Fill(obj, ocSize, ocPattern) // restore before Put
			k.Put(c, obj)
		}
	}
}

// testObjCacheDtor: the destructor runs for every buffer the cache
// releases, sees constructed state, and total dtors equal total
// releases equal total carves once the cache is destroyed.
func testObjCacheDtor(t *testing.T, f Factory) {
	inst := f(t, 1, 2048)
	mem := inst.M.Mem()
	dtors := 0
	dtor := func(c *machine.CPU, mm *arena.Arena, obj arena.Addr) {
		if off, ok := mem.CheckFill(obj, ocSize, ocPattern); !ok {
			t.Errorf("dtor saw unconstructed buffer %#x at offset %d", uint64(obj), off)
		}
		dtors++
	}
	k := newObjCache(t, inst, "alloctest:dtor", dtor)
	c := inst.M.CPU(0)
	objs := make([]arena.Addr, 0, 60)
	for i := 0; i < 60; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	for _, obj := range objs {
		k.Put(c, obj)
	}
	if live := k.Destroy(c); live != 0 {
		t.Fatalf("%d buffers live after quiescent destroy", live)
	}
	st := k.Stats()
	if st.DtorRuns != st.Carves || st.Releases != st.Carves {
		t.Fatalf("carves %d, dtors %d, releases %d; want all equal", st.Carves, st.DtorRuns, st.Releases)
	}
	if dtors != int(st.DtorRuns) {
		t.Fatalf("observed %d dtor calls, stats say %d", dtors, st.DtorRuns)
	}
	if inst.Check != nil {
		if err := inst.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// testObjCacheColors: held objects stay inside their backing block's
// capacity at line-granular offsets, and the slack yields more than one
// color.
func testObjCacheColors(t *testing.T, f Factory) {
	inst := f(t, 1, 2048)
	k := newObjCache(t, inst, "alloctest:color", nil)
	c := inst.M.CPU(0)
	if k.NumColors() < 2 {
		t.Fatalf("64 bytes of MinBackSize slack yield %d colors, want >= 2", k.NumColors())
	}
	objs := make([]arena.Addr, 0, 24)
	for i := 0; i < 24; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	offsets := map[uint64]bool{}
	k.ForEachCarved(func(obj, base arena.Addr) {
		off := uint64(obj - base)
		if off+ocSize > k.Capacity() {
			t.Errorf("object offset %d + size %d overruns capacity %d", off, ocSize, k.Capacity())
		}
		if offPastAlign := off % 8; offPastAlign != 0 {
			t.Errorf("object %#x misaligned", uint64(obj))
		}
		offsets[off] = true
	})
	if len(offsets) < 2 {
		t.Fatalf("24 carves used %d distinct offsets, want >= 2", len(offsets))
	}
	for _, obj := range objs {
		k.Put(c, obj)
	}
	k.Destroy(c)
}
