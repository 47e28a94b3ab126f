// Objcache: typed object caches over the kernel allocator — the
// slab-style layer of DESIGN.md §12. A named cache hands out objects in
// constructed state: the constructor runs once per backing carve, and
// every warm Get/Put cycle after that skips it, because Put's contract
// is that objects come back constructed. The example builds a cache of
// small "request" structs, cycles it, and shows the ctor-skip ratio,
// the cache-line coloring, and what a memory-pressure trim sheds.
//
//	go run ./examples/objcache
package main

import (
	"fmt"
	"log"

	"kmem"
	"kmem/internal/arena"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

func main() {
	sys, err := kmem.NewSystem(kmem.Config{CPUs: 2})
	if err != nil {
		log.Fatal(err)
	}
	m, mem := sys.Machine(), sys.Machine().Mem()
	cpu0 := sys.CPU(0)

	// A 72-byte "request" object: the ctor presets a magic word and
	// zeroes the link field; the dtor checks the magic is intact when
	// the cache finally releases backing memory to the allocator.
	const magic = 0x7ec0ffee
	ctor := func(c *machine.CPU, mm *arena.Arena, obj arena.Addr) {
		mm.Store64(obj, magic) // header word
		mm.Store64(obj+8, 0)   // link, constructed empty
	}
	dtor := func(c *machine.CPU, mm *arena.Arena, obj arena.Addr) {
		if mm.Load64(obj) != magic {
			log.Fatalf("dtor saw a corrupted object at %#x", uint64(obj))
		}
	}
	cache, err := objcache.New(m, sys.Allocator(),
		"example:request", 72, 8, ctor, dtor, objcache.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache %q: %d-byte objects in %d-byte backing blocks, %d colors\n",
		cache.Name(), cache.ObjSize(), cache.Capacity(), cache.NumColors())

	// Cycle the cache. Every Get returns a constructed object — magic
	// set, link zeroed — so the hot path touches nothing but payload.
	// Callers restore constructed state before Put (here: re-zero the
	// link they used).
	for i := 0; i < 50000; i++ {
		obj, err := cache.Get(cpu0)
		if err != nil {
			log.Fatal(err)
		}
		if mem.Load64(obj) != magic {
			log.Fatalf("unconstructed object at %#x", uint64(obj))
		}
		mem.Store64(obj+8, uint64(obj)) // use the link...
		mem.Store64(obj+8, 0)           // ...and restore it
		cache.Put(cpu0, obj)
	}
	st := cache.Stats()
	fmt.Printf("50000 cycles: %d ctor runs, %d ctor skips (%.2f%% skipped)\n",
		st.CtorRuns, st.CtorSkips,
		float64(st.CtorSkips)/float64(st.CtorRuns+st.CtorSkips)*100)

	// Hold a few objects and show the coloring: successive carves start
	// on different cache lines inside their backing blocks.
	offsets := map[uint64]bool{}
	var held []arena.Addr
	for i := 0; i < 40; i++ {
		obj, err := cache.Get(cpu0)
		if err != nil {
			log.Fatal(err)
		}
		held = append(held, obj)
	}
	cache.ForEachCarved(func(obj, base arena.Addr) { offsets[uint64(obj-base)] = true })
	fmt.Printf("held objects use %d distinct color offsets across carves\n", len(offsets))
	for _, obj := range held {
		cache.Put(cpu0, obj)
	}

	// Under pressure the allocator asks registered caches to shed:
	// Trim empties the depot (constructed buffers the CPU magazines
	// don't need); a full drain releases everything, running the dtor
	// exactly once per released object.
	sys.Allocator().Trim(cpu0, 0)
	fmt.Printf("after trim:  %d shed, %d dtor runs\n", cache.Stats().Sheds, cache.Stats().DtorRuns)
	if live := cache.Destroy(cpu0); live != 0 {
		log.Fatalf("%d objects leaked", live)
	}
	st = cache.Stats()
	fmt.Printf("after destroy: carves %d == dtors %d == releases %d\n",
		st.Carves, st.DtorRuns, st.Releases)
}
