package torture

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/harden"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

// The differential shadow oracle: a map-based model of what the
// allocator has promised. Every live block is remembered with its
// class-rounded extent, its NUMA home, and a fill pattern; after every
// alloc the new block is checked against the whole model, and before
// every free the block's integrity and home stability are re-verified.
// The model is deliberately dumb — sorted facts and linear scans — so a
// disagreement always means the allocator is wrong, never the model.

// handle is one live block in the shadow model.
type handle struct {
	addr    arena.Addr
	size    uint64 // requested size (what Free must be passed)
	rounded uint64 // true reserved extent (class/page-rounded, + redzone when hardened)
	home    int    // NUMA home at allocation time
	pattern byte
	op      int // op index that allocated it (for failure messages)
}

// cachedObj is one object held out of the typed object cache. The mark
// byte plays the role of handle.pattern: each Get stamps its own mark,
// so a double hand-out or a scribble shows up at Put time.
type cachedObj struct {
	obj  arena.Addr
	mark byte
	op   int
}

type oracle struct {
	m    *machine.Machine
	a    *core.Allocator
	cfg  Config
	live []handle

	// liveBytes is the model's rounded-extent total across live handles,
	// the "live" leg of the residency invariant chain.
	liveBytes uint64

	// cache and cached exist only on ObjCache configs: the typed cache
	// under test and the objects currently held from it. dtorFail latches
	// the first destructor-side violation (destructors run inside sheds
	// and drains, where returning an error is impossible).
	cache    *objcache.Cache
	cached   []cachedObj
	dtorFail string

	// rz is the hardening redzone width (0 with Harden off): the gap
	// between a block's usable capacity (RoundedSize) and its true
	// footprint, which is what alignment and extents must be checked
	// against. planted collects the hardening layer's corruption
	// reports on Plant configs; plantDone latches the one-shot plant,
	// and pinned is a cache latewrite plant's victim, which must stay
	// carved to the end.
	rz        uint64
	planted   *[]harden.Report
	plantDone bool
	pinned    arena.Addr

	pageBytes uint64
	maxSmall  uint64
}

func newOracle(m *machine.Machine, a *core.Allocator, cfg Config) *oracle {
	o := &oracle{
		m:         m,
		a:         a,
		cfg:       cfg,
		pageBytes: m.Config().PageBytes,
		maxSmall:  uint64(a.MaxSmall()),
	}
	if cfg.Harden {
		o.rz = harden.DefaultRedzone
	}
	return o
}

// onAlloc checks a fresh allocation against the model and admits it.
// Returns a failure message, or "" when every postcondition holds.
func (o *oracle) onAlloc(addr arena.Addr, size uint64, op int) string {
	if addr == arena.NilAddr {
		return fmt.Sprintf("alloc(%d) returned the nil address without an error", size)
	}
	rounded := o.a.RoundedSize(size)
	if rounded < size {
		return fmt.Sprintf("alloc(%d): rounded size %d smaller than request", size, rounded)
	}
	// With hardening on, RoundedSize is the usable capacity; the true
	// footprint (what placement aligns to and what the extent occupies)
	// adds the trailing redzone.
	extent := rounded + o.rz
	if uint64(addr)+extent > o.m.Config().MemBytes {
		return fmt.Sprintf("alloc(%d) = %#x: extent %d overruns the arena", size, addr, extent)
	}
	// Placement: small blocks sit class-aligned inside one page; large
	// blocks are page-aligned spans. The hardened small/large split is
	// on size+redzone, mirroring the allocator's.
	off := uint64(addr) % o.pageBytes
	if size+o.rz <= o.maxSmall {
		if off%extent != 0 {
			return fmt.Sprintf("alloc(%d) = %#x: not aligned to its class size %d", size, addr, extent)
		}
		if off+extent > o.pageBytes {
			return fmt.Sprintf("alloc(%d) = %#x: class block straddles a page boundary", size, addr)
		}
	} else if off != 0 {
		return fmt.Sprintf("alloc(%d) = %#x: large block not page-aligned", size, addr)
	}
	// NUMA home per the dope vector: must name a real node.
	home := o.a.HomeOf(addr)
	if home < 0 || home >= o.cfg.Nodes {
		return fmt.Sprintf("alloc(%d) = %#x: dope vector homes it on node %d of %d", size, addr, home, o.cfg.Nodes)
	}
	// No live-block overlap against the entire model.
	for _, h := range o.live {
		if uint64(addr) < uint64(h.addr)+h.rounded && uint64(h.addr) < uint64(addr)+rounded {
			return fmt.Sprintf("alloc(%d) = %#x (extent %d) overlaps live block %#x (size %d, extent %d, from op %d)",
				size, addr, rounded, h.addr, h.size, h.rounded, h.op)
		}
	}
	h := handle{
		addr:    addr,
		size:    size,
		rounded: extent,
		home:    home,
		pattern: byte(0xA0 ^ op),
		op:      op,
	}
	// Write integrity: fill the requested bytes now, verify them intact
	// at free time. A block handed to two callers, or scribbled by
	// allocator metadata, breaks the pattern.
	o.m.Mem().Fill(addr, size, h.pattern)
	o.live = append(o.live, h)
	o.liveBytes += extent
	return ""
}

// residency checks the invariant chain of the virtual-span model after
// any operation: bytes promised to callers fit inside the resident
// frames, which fit inside the reserved address space. Blocks never
// overlap (onAlloc proves it), so the model's rounded total is a true
// lower bound on what must be physically backed. Holds in both backing
// modes; with lazy spans it is the property the whole redesign rests on.
func (o *oracle) residency() string {
	s := o.m.Phys().Stats()
	resident := uint64(s.Mapped) * o.pageBytes
	reserved := uint64(s.Reserved) * o.pageBytes
	if o.liveBytes > resident {
		return fmt.Sprintf("residency: %d live bytes exceed %d resident bytes (%d pages)",
			o.liveBytes, resident, s.Mapped)
	}
	if resident > reserved {
		return fmt.Sprintf("residency: %d resident bytes exceed %d reserved bytes (%d pages)",
			resident, reserved, s.Reserved)
	}
	return ""
}

// beforeFree re-verifies a block the instant before it is freed.
func (o *oracle) beforeFree(h handle) string {
	if off, ok := o.m.Mem().CheckFill(h.addr, h.size, h.pattern); !ok {
		return fmt.Sprintf("block %#x (size %d, from op %d): byte %d corrupted while live",
			h.addr, h.size, h.op, off)
	}
	if home := o.a.HomeOf(h.addr); home != h.home {
		return fmt.Sprintf("block %#x (from op %d): home moved from node %d to node %d while live",
			h.addr, h.op, h.home, home)
	}
	return ""
}

// remove drops live entry j (swap-remove; order is irrelevant to the
// model, and op.Arg indexes it modulo length, deterministically).
func (o *oracle) remove(j int) {
	o.liveBytes -= o.live[j].rounded
	o.live[j] = o.live[len(o.live)-1]
	o.live = o.live[:len(o.live)-1]
}

// objCacheSize and objCachePattern shape the torture cache: the object
// size leaves coloring slack inside its 128-byte class, and the pattern
// is what the constructor fills and the destructor demands back.
const (
	objCacheSize    = 96
	objCachePattern = 0x6b
)

// onCacheGet checks a freshly gotten cache object: it must carry the
// constructed pattern (whether it came from the ctor or a magazine),
// must not alias another held object, and must not land inside
// any live heap block's extent. Then the object is dirtied with this
// op's mark, deliberately destroying the constructed state — the cache
// must never hand it to anyone else before Put restores it.
func (o *oracle) onCacheGet(obj arena.Addr, op int) string {
	if obj == arena.NilAddr {
		return "cache get returned the nil address without an error"
	}
	if off, ok := o.m.Mem().CheckFill(obj, objCacheSize, objCachePattern); !ok {
		return fmt.Sprintf("cache get %#x: byte %d not constructed", obj, off)
	}
	for _, co := range o.cached {
		if uint64(obj) < uint64(co.obj)+objCacheSize && uint64(co.obj) < uint64(obj)+objCacheSize {
			return fmt.Sprintf("cache get %#x overlaps held object %#x (from op %d)", obj, co.obj, co.op)
		}
	}
	for _, h := range o.live {
		if uint64(obj) < uint64(h.addr)+h.rounded && uint64(h.addr) < uint64(obj)+objCacheSize {
			return fmt.Sprintf("cache get %#x overlaps live heap block %#x (from op %d)", obj, h.addr, h.op)
		}
	}
	co := cachedObj{obj: obj, mark: byte(0xC0 ^ op), op: op}
	o.m.Mem().Fill(obj, objCacheSize, co.mark)
	o.cached = append(o.cached, co)
	return ""
}

// beforeCachePut re-verifies a held object's mark the instant before it
// goes back, then restores the constructed pattern — the caller-side
// half of the constructed-state contract.
func (o *oracle) beforeCachePut(co cachedObj) string {
	if off, ok := o.m.Mem().CheckFill(co.obj, objCacheSize, co.mark); !ok {
		return fmt.Sprintf("cache object %#x (from op %d): byte %d corrupted while held", co.obj, co.op, off)
	}
	o.m.Mem().Fill(co.obj, objCacheSize, objCachePattern)
	return ""
}

// removeCached drops held cache entry j (swap-remove, like remove).
func (o *oracle) removeCached(j int) {
	o.cached[j] = o.cached[len(o.cached)-1]
	o.cached = o.cached[:len(o.cached)-1]
}
