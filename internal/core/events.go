package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"kmem/internal/machine"
)

// LayerEvent identifies one kind of layer-boundary crossing inside the
// allocator. Every counter the allocator keeps — and everything a Hook
// observes — is expressed in terms of these events: the per-layer
// structures each hold an eventCounts array indexed by LayerEvent, Stats
// is assembled from those arrays, and the optional Params.Hook sees the
// same events as they happen. Stats, tracing (TraceHook) and the bench
// harness (EventCounter) are all consumers of this one spine.
type LayerEvent uint8

const (
	// Per-CPU caching layer (layer 1). EvAlloc and EvFree count the
	// fast-path operations themselves; they are tallied in the per-CPU
	// counters but never pushed through a Hook, so the 13-instruction
	// cookie path does no extra work. EvCPURefill/EvCPUSpill are the
	// boundary crossings into the global layer.
	EvAlloc LayerEvent = iota
	EvFree
	EvCPURefill // allocation missed the cache; a list arrived from the global layer
	EvCPUSpill  // free overflowed the cache; a list departed to the global layer

	// Global layer (layer 2).
	EvGlobalGet
	EvGlobalPut
	EvGlobalRefill // get missed; blocks arrived from the coalesce-to-page layer
	EvGlobalSpill  // put overflowed; blocks departed to the coalesce-to-page layer

	// Coalesce-to-page layer (layer 3).
	EvBlockGet  // blocks handed up to the global layer
	EvBlockPut  // blocks returned from the global layer
	EvPageCarve // a fresh page obtained from the vmblk layer and split
	EvPageFree  // a fully-free page released back to the vmblk layer

	// Coalesce-to-vmblk layer (layer 4). These carry class -1: the vmblk
	// layer serves every class and the large path alike.
	EvSpanAlloc
	EvSpanFree
	EvVmblkCreate
	EvLargeAlloc
	EvLargeFree
	EvPagesMap   // physical pages mapped (n = pages)
	EvPagesUnmap // physical pages unmapped (n = pages)
	EvMapFail    // a physical-memory map request was refused

	// Allocator-wide events (class -1).
	EvReclaim // the low-memory reclaim path ran

	// Node-crossing events (NUMA topologies; all zero on a single-node
	// machine).
	EvRemoteFree   // a spilled list was routed to another node's global pool (n = blocks)
	EvNodeSteal    // a dry home pool stole cached blocks from another node (n = blocks)
	EvInterconnect // a slow-path pool operation crossed the interconnect (n = crossings)

	// Memory-pressure events (class -1 except EvWait/EvWake, which carry
	// the waiting class or -1 for large requests). EvPressure reports a
	// level transition with n = new level + 1 (1 = ok, 2 = low,
	// 3 = critical; the offset keeps n nonzero so Hooks see every
	// transition). EvReclaimStep counts incremental-reclaim steps.
	EvPressure
	EvWait          // an AllocWait caller parked (n = 1)
	EvWake          // parked waiters were released (n = waiters woken)
	EvFaultInjected // an armed fault point fired (n = 1)
	EvReclaimStep   // one incremental reclaim step ran (n = 1)

	// Remote-free shard events (NUMA topologies with shards enabled; all
	// zero otherwise). EvHomeMemoHit counts sharded frees whose home was
	// answered by the per-CPU vmblk memo instead of a charged dope-vector
	// lookup; like EvAlloc/EvFree it is tallied per CPU but never pushed
	// through a Hook, keeping the free fast path hook-free.
	EvShardFlush  // a full remote shard was flushed home in one batched putList (n = blocks)
	EvHomeMemoHit // a sharded free's home lookup hit the per-CPU vmblk memo (n = 1)

	// Lock-contention accounting (Sim mode). EvRemotePut counts slow-path
	// putList calls that acquired another node's pool lock — the remote
	// lock trips the shards exist to batch away. EvLockWait carries the
	// cycles an acquire spent spinning on a contended pool lock
	// (n = wait cycles), attributed to the pool's class (-1 for the
	// vmblk layer's lock).
	EvRemotePut
	EvLockWait

	// Virtual-span residency events (class -1). EvPagesReserve counts VA
	// pages reserved when a vmblk's span is carved out of the arena (both
	// backing modes — reservation costs no physical frames).
	// EvPagesCommit and EvPagesDecommit count pages moved between
	// reserved and resident by the lazy-backing paths: commit-on-first-
	// carve and the scrubbing decommit pass. Both are zero in eager mode,
	// which reports EvPagesMap/EvPagesUnmap instead.
	EvPagesReserve
	EvPagesCommit
	EvPagesDecommit

	// Typed object-cache events (the objcache layer over the cookie
	// path). EvCtorRun counts constructors executed when a buffer is
	// first carved from its backing class; EvCacheShed counts constructed
	// buffers a cache destructed and released back to the allocator under
	// reclaim/Trim pressure (n = buffers). EvCtorSkip counts Gets served
	// a still-constructed buffer — like EvAlloc/EvFree it is tallied in
	// per-cache counters but never pushed through a Hook, keeping the
	// magazine fast path hook-free. All three are zero when no caches
	// exist; the allocator itself never emits them.
	EvCtorRun
	EvCtorSkip
	EvCacheShed

	// Corruption-hardening events (Params.Harden / hardened object
	// caches; all zero with hardening off). EvCorruption counts
	// detections (n = 1, class of the corrupt block or -1); EvQuarantine
	// counts pages pulled from circulation for post-mortem (n = pages).
	EvCorruption
	EvQuarantine

	// Optimistic-concurrency events (Params.Rseq / Params.LockFree; all
	// zero with both off). EvRseqRestart counts restartable-sequence
	// attempts aborted by preemption/interference (n = aborts);
	// EvCASRetry counts lock-free commit attempts that lost their CAS to
	// a concurrent commit and re-ran (n = retries). Both are tallied in
	// the owning structure's counters on the paths where they occur;
	// EvRseqRestart on the fast path is tallied per CPU but never pushed
	// through a Hook, like EvAlloc/EvFree.
	EvRseqRestart
	EvCASRetry

	// EvSpillRouted counts blocks a main/aux spill or drain partitioned
	// by home one dope-vector lookup at a time (n = blocks): only a
	// cache holding a stolen refill does. A node-pure cache's list reaches its pool in one putList instead.
	EvSpillRouted

	// EvPageRefile counts split pages the coalesce-to-page layer moved
	// between radix buckets (n = pages): a stale head pickPage repaired,
	// or a picked page a refill left partly drawn. Frees never refile, and
	// a fresh page is filed once, at what the refill left of it. Emitted
	// with the refill's EvBlockGet; zero under DisableRadixSort.
	EvPageRefile

	numLayerEvents
)

var layerEventNames = [numLayerEvents]string{
	EvAlloc:         "alloc",
	EvFree:          "free",
	EvCPURefill:     "cpu-refill",
	EvCPUSpill:      "cpu-spill",
	EvGlobalGet:     "global-get",
	EvGlobalPut:     "global-put",
	EvGlobalRefill:  "global-refill",
	EvGlobalSpill:   "global-spill",
	EvBlockGet:      "block-get",
	EvBlockPut:      "block-put",
	EvPageCarve:     "page-carve",
	EvPageFree:      "page-free",
	EvSpanAlloc:     "span-alloc",
	EvSpanFree:      "span-free",
	EvVmblkCreate:   "vmblk-create",
	EvLargeAlloc:    "large-alloc",
	EvLargeFree:     "large-free",
	EvPagesMap:      "pages-map",
	EvPagesUnmap:    "pages-unmap",
	EvMapFail:       "map-fail",
	EvReclaim:       "reclaim",
	EvRemoteFree:    "remote-free",
	EvNodeSteal:     "node-steal",
	EvInterconnect:  "interconnect",
	EvPressure:      "pressure",
	EvWait:          "wait",
	EvWake:          "wake",
	EvFaultInjected: "fault-injected",
	EvReclaimStep:   "reclaim-step",
	EvShardFlush:    "shard-flush",
	EvHomeMemoHit:   "home-memo-hit",
	EvRemotePut:     "remote-put",
	EvLockWait:      "lock-wait",
	EvPagesReserve:  "pages-reserve",
	EvPagesCommit:   "pages-commit",
	EvPagesDecommit: "pages-decommit",
	EvCtorRun:       "ctor-run",
	EvCtorSkip:      "ctor-skip",
	EvCacheShed:     "cache-shed",
	EvCorruption:    "corruption",
	EvQuarantine:    "quarantine",
	EvRseqRestart:   "rseq-restart",
	EvCASRetry:      "cas-retry",
	EvSpillRouted:   "spill-routed",
	EvPageRefile:    "page-refile",
}

// NumLayerEvents is the number of distinct layer events.
const NumLayerEvents = int(numLayerEvents)

func (e LayerEvent) String() string {
	if int(e) < len(layerEventNames) {
		return layerEventNames[e]
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Hook is an optional per-allocator event sink. It is called with the
// size class the event belongs to (-1 for classless events: the vmblk
// layer and reclaim), the event, and the batch size n (blocks for
// block-moving events, pages for page events, 1 for plain operations).
//
// Hooks fire only on slow paths — never on a fast-path alloc or free —
// and may be invoked while allocator-internal locks are held, so a Hook
// must be fast, must not call back into the allocator, and must be safe
// for concurrent use from multiple CPUs in Native mode. A nil Hook costs
// one predictable branch on the slow paths and nothing on the fast path.
type Hook func(cls int, ev LayerEvent, n int)

// eventCounts is one structure's slice of the event spine: a fixed array
// of per-event counters, written under whatever lock protects the
// structure. Stats sums these arrays; no layer keeps ad-hoc named
// counters outside the spine.
type eventCounts [numLayerEvents]uint64

// emit pushes one event to the allocator's Hook, if any. It is never
// called on the alloc/free fast path.
func (a *Allocator) emit(cls int, ev LayerEvent, n int) {
	if h := a.params.Hook; h != nil && n != 0 {
		h(cls, ev, n)
	}
}

// note counts an allocator-wide event in the allocator's own slice of
// the spine (Allocator.ev) and emits it. EvPressure's n is the new level,
// not a count, so its counter counts emissions.
func (a *Allocator) note(cls int, ev LayerEvent, n int) {
	k := uint64(n)
	if ev == EvPressure {
		k = 1
	}
	a.ev[ev].Add(k)
	a.emit(cls, ev, n)
}

// EmitCacheEvent pushes an object-cache event (EvCtorRun, EvCacheShed)
// through the allocator's Hook on behalf of the objcache layer. Cache
// events are classless (-1): a cache's backing class is its own affair.
// Like every Hook emission this must only be called on slow paths.
func (a *Allocator) EmitCacheEvent(ev LayerEvent, n int) {
	a.emit(-1, ev, n)
}

// acquire takes lk on CPU c and attributes the cycles the acquire spent
// spinning to the event spine: EvLockWait in ev, the counters lk guards,
// and through the Hook for class cls. Uncontended acquires (and Native
// mode, which does not model spin time) cost one predictable branch.
func (a *Allocator) acquire(c *machine.CPU, lk *machine.SpinLock, ev *eventCounts, cls int) {
	lk.Acquire(c)
	if w := lk.LastWait(); w > 0 {
		ev[EvLockWait] += uint64(w)
		a.emit(cls, EvLockWait, int(w))
	}
}

// TraceHook returns a Hook that writes one line per event to w — the
// tracing consumer of the event spine. Lines are serialized by an
// internal mutex so concurrent CPUs do not interleave output.
func TraceHook(w io.Writer) Hook {
	var mu sync.Mutex
	return func(cls int, ev LayerEvent, n int) {
		mu.Lock()
		fmt.Fprintf(w, "kmem: cls=%d ev=%s n=%d\n", cls, ev, n)
		mu.Unlock()
	}
}

// EventCounter is a Hook sink that tallies events across all classes —
// the aggregating consumer of the spine used by the bench harness and
// tests. Safe for concurrent use.
type EventCounter struct {
	n [numLayerEvents]atomic.Uint64
}

// Hook returns the Hook that feeds this counter.
func (e *EventCounter) Hook() Hook {
	return func(cls int, ev LayerEvent, n int) {
		e.n[ev].Add(uint64(n))
	}
}

// Count returns the accumulated n for one event.
func (e *EventCounter) Count(ev LayerEvent) uint64 { return e.n[ev].Load() }

// Snapshot returns all per-event totals indexed by LayerEvent.
func (e *EventCounter) Snapshot() [NumLayerEvents]uint64 {
	var out [NumLayerEvents]uint64
	for i := range out {
		out[i] = e.n[i].Load()
	}
	return out
}
