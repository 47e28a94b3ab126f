package core

import (
	"kmem/internal/machine"
	"kmem/internal/physmem"
)

// ClassStats reports one size class's per-layer activity, assembled from
// the event spine (each layer structure's eventCounts array). The miss
// rates the paper's DLM evaluation uses are derived from these counters:
// the per-CPU layer's miss rate is the fraction of its accesses that
// require the global layer, and the global layer's miss rate is the
// fraction of its accesses that require the coalesce-to-page layer.
type ClassStats struct {
	Size      uint32
	Target    int // per-CPU cache target
	GblTarget int // global-layer capacity parameter

	// Per-CPU layer, summed over CPUs.
	Allocs       uint64
	Frees        uint64
	AllocRefills uint64 // allocations that visited the global layer
	FreeSpills   uint64 // frees that pushed a list to the global layer

	// Global layer (summed over the per-node pools on NUMA machines).
	GlobalGets    uint64
	GlobalPuts    uint64
	GlobalRefills uint64 // gets that reached the coalesce-to-page layer
	GlobalSpills  uint64 // puts that reached the coalesce-to-page layer
	GlobalLock    machine.LockStats
	PageLock      machine.LockStats // the coalesce-to-page pools' locks

	// Node-crossing traffic (zero on single-node machines).
	RemoteFrees  uint64 // blocks routed to a non-local node's global pool
	RemotePuts   uint64 // putList lock trips taken against a non-local pool
	NodeSteals   uint64 // blocks stolen from other nodes' pools by dry refills
	Interconnect uint64 // slow-path pool operations that crossed the interconnect
	SpillRouted  uint64 // blocks of main/aux spills routed home one lookup at a time

	// Remote-free shard activity (zero on single-node machines).
	ShardFlushes uint64 // remote shards flushed home in one batched putList
	HomeMemoHits uint64 // sharded frees answered by the per-CPU home memo

	// Lock-contention cycles attributed to this class's pools (Sim mode):
	// cycles CPUs spent spinning on the global and page-pool locks, from
	// the event spine (EvLockWait).
	LockWaitCycles uint64

	// Optimistic-concurrency activity (zero with Rseq/LockFree off).
	RseqRestarts uint64 // per-CPU sequences aborted and re-run
	CASRetries   uint64 // lock-free commits that lost their CAS and re-ran

	// Coalesce-to-page layer.
	BlockGets   uint64
	BlockPuts   uint64
	PageAllocs  uint64
	PageFrees   uint64
	PageRefiles uint64 // split pages moved between radix buckets by refills

	// Blocks currently cached at each level.
	HeldPerCPU int
	HeldGlobal int

	// LiveBytes is the class's outstanding memory — blocks allocated and
	// not yet freed, at the class's rounded block size. Exact on a
	// quiescent allocator; transiently approximate while CPUs run (the
	// snapshot is relaxed, see Stats).
	LiveBytes uint64
}

// AllocMissRate returns the fraction of allocations that missed the
// per-CPU cache (bounded by 1/target).
func (s ClassStats) AllocMissRate() float64 {
	if s.Allocs == 0 {
		return 0
	}
	return float64(s.AllocRefills) / float64(s.Allocs)
}

// FreeMissRate returns the fraction of frees that spilled to the global
// layer (bounded by 1/target).
func (s ClassStats) FreeMissRate() float64 {
	if s.Frees == 0 {
		return 0
	}
	return float64(s.FreeSpills) / float64(s.Frees)
}

// GlobalGetMissRate returns the fraction of global-layer gets that
// required the coalescing layer (bounded by 1/gbltarget).
func (s ClassStats) GlobalGetMissRate() float64 {
	if s.GlobalGets == 0 {
		return 0
	}
	return float64(s.GlobalRefills) / float64(s.GlobalGets)
}

// GlobalPutMissRate returns the fraction of global-layer puts that
// spilled to the coalescing layer.
func (s ClassStats) GlobalPutMissRate() float64 {
	if s.GlobalPuts == 0 {
		return 0
	}
	return float64(s.GlobalSpills) / float64(s.GlobalPuts)
}

// CombinedAllocMissRate returns the fraction of all allocations that
// reached the coalesce-to-page layer (bounded by 1/(target*gbltarget)).
func (s ClassStats) CombinedAllocMissRate() float64 {
	if s.Allocs == 0 {
		return 0
	}
	return float64(s.GlobalRefills) / float64(s.Allocs)
}

// CombinedFreeMissRate returns the fraction of all frees whose blocks
// reached the coalesce-to-page layer.
func (s ClassStats) CombinedFreeMissRate() float64 {
	if s.Frees == 0 {
		return 0
	}
	return float64(s.GlobalSpills) / float64(s.Frees)
}

// VMStats reports coalesce-to-vmblk layer activity.
type VMStats struct {
	SpanAllocs   uint64
	SpanFrees    uint64
	VmblkCreates uint64
	LargeAllocs  uint64
	LargeFrees   uint64
	PagesMapped  uint64
	PagesUnmap   uint64
	MapFailures  uint64

	// Virtual-span residency traffic. PagesReserved counts VA pages
	// reserved at vmblk creation (both backing modes); PagesCommit and
	// PagesDecommit count the lazy mode's on-demand commits and
	// free-span decommits (zero in eager mode, which moves frames
	// through PagesMapped/PagesUnmap instead).
	PagesReserved  uint64
	PagesCommit    uint64
	PagesDecommit  uint64
	LargeLivePages int64 // pages currently held by large allocations

	// Lock is the layer lock's contention snapshot; LockWaitCycles is the
	// same spin time as attributed through the event spine (EvLockWait).
	Lock           machine.LockStats
	LockWaitCycles uint64
}

// PressureStats reports the memory-pressure machinery's activity. All
// zero when Params.Pressure is nil, no AllocWait caller ever parked, and
// no fault was injected.
type PressureStats struct {
	Level          PressureLevel // current level (mirrors Phys.Pressure)
	Transitions    uint64        // level changes observed by the allocator
	Waits          uint64        // AllocWait park/backoff rounds
	Wakes          uint64        // parked waiters released
	FaultsInjected uint64        // armed fault points that fired
	ReclaimSteps   uint64        // incremental reclaim steps run
}

// QuarantineStats reports the corruption-hardening layer's detections
// and containment (all zero with Params.Harden nil). Quarantined memory
// stays mapped — it counts in Phys.Mapped and Phys.Quarantined — but is
// permanently out of circulation.
type QuarantineStats struct {
	Detections    uint64 // total corruption reports filed
	Overruns      uint64 // redzone canaries destroyed
	DoubleFrees   uint64 // frees of blocks not currently allocated
	UseAfterFrees uint64 // free-poison destroyed by a late write

	Pages   uint64 // pages pulled from circulation (split pages + large spans)
	Objects uint64 // blocks, spans and typed-cache objects parked or kept
	Bytes   uint64 // bytes of parked blocks/spans (rounded sizes)
	Pinned  uint64 // typed-cache objects pinned (counted in Objects too)
}

// FragStats is the fragmentation triple: the three nested footprints of
// the virtual-span model, Reserved ≥ Resident ≥ Live. The gap between
// Resident and Live is internal + caching fragmentation (memory the
// allocator holds but no caller owns); the gap between Reserved and
// Resident is address space held at zero physical cost. In eager mode
// Resident tracks the allocator's mapped footprint, so the triple stays
// meaningful across both backing models.
type FragStats struct {
	ReservedBytes uint64 // virtual address space claimed by vmblk spans
	ResidentBytes uint64 // physically committed pages
	LiveBytes     uint64 // bytes outstanding to callers (rounded sizes)
}

// ResidentRatio returns ResidentBytes/ReservedBytes — the fraction of
// the claimed address space that costs physical memory (0 when nothing
// is reserved).
func (f FragStats) ResidentRatio() float64 {
	if f.ReservedBytes == 0 {
		return 0
	}
	return float64(f.ResidentBytes) / float64(f.ReservedBytes)
}

// Utilization returns LiveBytes/ResidentBytes — the fraction of
// committed memory actually owned by callers (0 when nothing is
// resident).
func (f FragStats) Utilization() float64 {
	if f.ResidentBytes == 0 {
		return 0
	}
	return float64(f.LiveBytes) / float64(f.ResidentBytes)
}

// Stats is a full snapshot of the allocator.
type Stats struct {
	Classes    []ClassStats
	VM         VMStats
	Phys       physmem.Stats
	Frag       FragStats
	Reclaims   uint64
	Pressure   PressureStats
	Quarantine QuarantineStats
}

// Stats gathers a snapshot; pass the calling CPU's handle as everywhere
// else.
//
// Snapshot semantics are deliberately relaxed rather than stop-the-world:
// each CPU's caches are read inside a single critical section (so one
// CPU's counters are mutually consistent across every class and every
// event), and each global pool and page pool is read under its own lock —
// but the snapshot as a whole is not one atomic cut across layers. While
// other CPUs run, cross-layer totals may disagree transiently (e.g. a
// spilled list may be counted by the per-CPU layer before the global
// layer has received it). The invariants that DO hold, asserted by
// TestStatsRelaxedSnapshotInvariants: every counter is monotonically
// nondecreasing between successive snapshots, and on a quiescent
// allocator the snapshot is exact (block conservation holds per class).
func (a *Allocator) Stats(c *machine.CPU) Stats {
	out := Stats{Reclaims: a.ev[EvReclaim].Load()}
	out.Classes = make([]ClassStats, len(a.classes))
	for i := range a.classes {
		cs := &a.classes[i]
		out.Classes[i] = ClassStats{Size: cs.size, Target: cs.target, GblTarget: cs.gbltarget}
	}

	// One critical section per CPU, covering every class: a CPU's
	// per-class counters are read as one consistent unit instead of the
	// per-class lock/unlock sequence that let classes skew against each
	// other mid-run.
	for cpu := range a.percpu {
		a.crit[cpu].EnterForeign(c)
		for i := range a.classes {
			pc := &a.percpu[cpu][i]
			st := &out.Classes[i]
			st.Allocs += pc.ev[EvAlloc]
			st.Frees += pc.ev[EvFree]
			st.AllocRefills += pc.ev[EvCPURefill]
			st.FreeSpills += pc.ev[EvCPUSpill]
			st.ShardFlushes += pc.ev[EvShardFlush]
			st.HomeMemoHits += pc.ev[EvHomeMemoHit]
			st.SpillRouted += pc.ev[EvSpillRouted]
			st.RseqRestarts += pc.ev[EvRseqRestart]
			st.HeldPerCPU += pc.held(a.shardsOf(cpu, i))
		}
		a.crit[cpu].ExitForeign(c)
	}

	for i := range a.classes {
		cs := &a.classes[i]
		st := &out.Classes[i]

		for _, g := range cs.globals {
			g.lk.Acquire(c)
			st.GlobalGets += g.ev[EvGlobalGet]
			st.GlobalPuts += g.ev[EvGlobalPut]
			st.GlobalRefills += g.ev[EvGlobalRefill]
			st.GlobalSpills += g.ev[EvGlobalSpill]
			st.RemoteFrees += g.ev[EvRemoteFree]
			st.RemotePuts += g.ev[EvRemotePut]
			st.NodeSteals += g.ev[EvNodeSteal]
			st.Interconnect += g.ev[EvInterconnect]
			st.LockWaitCycles += g.ev[EvLockWait]
			st.CASRetries += g.ev[EvCASRetry]
			st.HeldGlobal += g.bucket.Len()
			for _, l := range g.lists {
				st.HeldGlobal += l.Len()
			}
			g.lk.Release(c)
			st.GlobalLock.Add(g.lk.Stats())
		}

		for _, p := range cs.pages {
			p.lk.Acquire(c)
			st.BlockGets += p.ev[EvBlockGet]
			st.BlockPuts += p.ev[EvBlockPut]
			st.PageAllocs += p.ev[EvPageCarve]
			st.PageFrees += p.ev[EvPageFree]
			st.PageRefiles += p.ev[EvPageRefile]
			st.LockWaitCycles += p.ev[EvLockWait]
			p.lk.Release(c)
			st.PageLock.Add(p.lk.Stats())
		}
	}

	a.vm.lk.Acquire(c)
	out.VM = VMStats{
		SpanAllocs:     a.vm.ev[EvSpanAlloc],
		SpanFrees:      a.vm.ev[EvSpanFree],
		VmblkCreates:   a.vm.ev[EvVmblkCreate],
		LargeAllocs:    a.vm.ev[EvLargeAlloc],
		LargeFrees:     a.vm.ev[EvLargeFree],
		PagesMapped:    a.vm.ev[EvPagesMap],
		PagesUnmap:     a.vm.ev[EvPagesUnmap],
		MapFailures:    a.vm.ev[EvMapFail],
		PagesReserved:  a.vm.ev[EvPagesReserve],
		PagesCommit:    a.vm.ev[EvPagesCommit],
		PagesDecommit:  a.vm.ev[EvPagesDecommit],
		LargeLivePages: a.vm.largeLivePages,
		LockWaitCycles: a.vm.ev[EvLockWait],
	}
	a.vm.lk.Release(c)
	out.VM.Lock = a.vm.lk.Stats()
	out.Phys = a.m.Phys().Stats()

	// The fragmentation triple, from the same snapshot: reserved VA and
	// resident frames from physmem, live bytes from per-class outstanding
	// blocks plus the large path's held pages.
	pageBytes := a.m.Config().PageBytes
	var live uint64
	for i := range out.Classes {
		st := &out.Classes[i]
		if st.Allocs > st.Frees {
			st.LiveBytes = (st.Allocs - st.Frees) * uint64(st.Size)
		}
		live += st.LiveBytes
	}
	live += uint64(out.VM.LargeLivePages) * pageBytes
	out.Frag = FragStats{
		ReservedBytes: uint64(out.Phys.Reserved) * pageBytes,
		ResidentBytes: uint64(out.Phys.Mapped) * pageBytes,
		LiveBytes:     live,
	}
	out.Pressure = PressureStats{
		Level:          a.Pressure(),
		Transitions:    a.ev[EvPressure].Load(),
		Waits:          a.ev[EvWait].Load(),
		Wakes:          a.ev[EvWake].Load(),
		FaultsInjected: a.ev[EvFaultInjected].Load(),
		ReclaimSteps:   a.ev[EvReclaimStep].Load(),
	}
	out.Quarantine = a.hd.quarantineStats()
	return out
}
