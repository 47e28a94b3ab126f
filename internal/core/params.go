// Package core implements the paper's four-layer kernel memory allocator:
// a per-CPU caching layer over a global layer over a coalesce-to-page
// layer over a coalesce-to-vmblk layer, plus the cookie-based fast
// interface. See DESIGN.md for the layer-by-layer description.
package core

import (
	"fmt"
	"time"

	"kmem/internal/faultpoint"
	"kmem/internal/harden"
)

// DefaultClasses is the paper's "default set of nine power-of-two block
// sizes (16, 32, 64, 128, 256, 512, 1024, 2048, and 4096 bytes)".
var DefaultClasses = []uint32{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Params configures an Allocator.
type Params struct {
	// Classes lists the small-block sizes, ascending; each must be a
	// power of two, at least 16 (room for a link word), at most
	// PageBytes. Nil selects DefaultClasses.
	Classes []uint32

	// LazySpans selects the lazy policy of the vmblk layer's one
	// reserve/commit state machine: each vmblk reserves its whole span
	// of address space at creation (VA only — no physical frames), a
	// page is committed (EvPagesCommit) the first time a span holding it
	// is carved, and a freed span keeps its frames until a decommit pass
	// (reclaim, incremental reclaim steps, Trim, or commit-failure
	// recovery) scrubs and releases them, leaving the VA span and its
	// boundary tags intact. False — the default — is the paper's eager
	// policy, decommit on free: a span's pages are mapped when it is
	// allocated (EvPagesMap) and scrubbed and unmapped when it is freed
	// (EvPagesUnmap); TestLazySpansOffCycleIdentity pins its cycles to
	// the paper goldens. It also sets the vmblk size: the paper's 4 MB
	// when false, 64 MB — clamped to what each node's share of the arena
	// can hold — when true, since over-reserved virtual spans want to be
	// big. core.New is the only reader.
	LazySpans bool

	// TargetFor overrides the per-CPU cache target for a block size.
	// Nil selects DefaultTarget, the paper's heuristic ("ranges from 10
	// for 16-byte blocks to just 2 for 4096-byte blocks").
	TargetFor func(size uint32) int

	// GblTargetFor overrides the global-layer target (in units of
	// target-sized lists) for a block size. Nil selects
	// DefaultGblTarget (15 for small blocks, as in the paper's
	// miss-rate analysis).
	GblTargetFor func(size uint32) int

	// DisableRadixSort replaces the paper's radix-sorted page freelists
	// (pages with the fewest free blocks are allocated from first) with
	// a FIFO page list — the A3 ablation. The paper's design is the
	// default (false).
	DisableRadixSort bool

	// RadixSort is accepted and ignored: radix-sorted page freelists are
	// the default, and DisableRadixSort is the ablation. The field exists
	// only because the frozen benchmark/sut.go sets it in its Params
	// literal; the next benchmark PR drops that initialiser and this
	// field with it.
	RadixSort bool

	// Poison fills freed block payloads with a pattern so that
	// use-after-free shows up in tests.
	Poison bool

	// DisableSplitFreelist replaces the per-CPU split (main/aux)
	// freelist with a single freelist that exchanges blocks with the
	// global layer one at a time — the A2 ablation. The paper's design
	// is the default (false).
	DisableSplitFreelist bool

	// Hook, when non-nil, receives every layer-boundary event (refills,
	// spills, page carves, vmblk creates, reclaims — see LayerEvent).
	// Hooks fire on slow paths only; a nil Hook adds no work to the
	// alloc/free fast path.
	Hook Hook

	// Pressure enables the memory-pressure model: physmem watermarks,
	// graceful degradation of cache targets under PressureLow, and
	// incremental (per-step) reclaim under PressureCritical. Nil keeps
	// the pre-pressure behavior exactly: no watermarks, full
	// stop-the-world reclaim on exhaustion, cycle-identical slow paths.
	Pressure *PressureConfig

	// Wait configures AllocWait's bounded blocking. Nil selects
	// DefaultWaitConfig when AllocWait is used; the no-sleep Alloc path
	// ignores it entirely.
	Wait *WaitConfig

	// Faults, when non-nil, arms deterministic fault injection at the
	// allocator's three exhaustion seams: FaultPhysMap (every physical
	// commit, a map included), FaultVmblkCarve and FaultPagePoolRefill.
	// Nil — the default — compiles the checks down to a nil-receiver test
	// on slow paths only.
	Faults *faultpoint.Set

	// Rseq replaces the per-CPU layer's interrupt-disable critical
	// sections with restartable sequences (it is machine.NewPerCPUOn's
	// protocol argument and nothing else). Each CPU has one section,
	// which its class caches and the magazines of every typed cache over
	// this allocator share (CPUSection), so Rseq picks the protocol of
	// both. The fast path commits with a single store and is restarted —
	// never blocked — when preemption or a cross-CPU drain lands inside
	// it. The cookie path
	// stays at 13 instructions (the begin/commit pair costs the same two
	// instructions as cli/sti) and saves IntrCycles-CommitCycles per
	// operation; foreign drains (DrainCPU, reclaim, stats assembly) abort
	// in-flight sequences through PerCPU.EnterForeign instead of taking
	// a lock. False — the default — keeps the paper's interrupt-disable
	// protocol, cycle-for-cycle identical to the pre-rseq allocator
	// (TestOptimisticOffCycleIdentity). Rseq selects Sim's charges only:
	// on a Native machine both values run the one claim-word protocol
	// (machine.PerCPU), a CAS to enter a section and a store to leave.
	Rseq bool

	// LockFree models the global layer's per-node stacks of lists as
	// Treiber-style CAS freelists with an ABA-guarding tag: every push
	// and pop is a tagged-CAS commit, and getList and putList (the
	// shard-flush path included) each try one commit in front of the
	// pool spinlock — a get pops, a put of a target-sized list that
	// leaves the pool within its capacity pushes. Everything else
	// (refills, the bucket regrouping odd-sized lists, spills, cross-node
	// steals, drains, stats) runs under the lock, as in the paper's
	// profile. Only the pool's constructor reads the flag. The
	// CAS stacks are a Sim-mode cost model; New refuses the flag on a
	// Native machine. False — the default — keeps the spin-locked global
	// layer cycle-for-cycle intact.
	LockFree bool

	// Harden, when non-nil, enables the corruption-hardening layer:
	// per-object redzones verified on free and on reclaim audit sweeps,
	// poison-on-free with verify-on-alloc, per-block owner slots (an
	// extension of the dope vector) feeding bounded per-CPU audit
	// rings, and — under the default quarantine policy — containment of
	// detected corruption by pulling the affected page from every
	// freelist while keeping it mapped for post-mortem. Hardened
	// requests map size to the class serving size+Redzone, so usable
	// cookie/small sizes shrink by the redzone width. Nil — the default
	// — keeps every path cycle-identical to the unhardened allocator
	// (TestHardenOffCycleIdentity). Harden supersedes Poison on the
	// class paths: its own poison/verify machinery runs instead.
	Harden *harden.Config
}

// Names of the fault points compiled into the allocator's exhaustion
// paths. Arm them on Params.Faults to force the corresponding failure.
const (
	// FaultPhysMap fails physmem.Pool.Commit, and so Map (Reserve plus
	// Commit), with ErrNoPages — a physical frame shortage, possibly
	// mid-allocation after virtual space was already carved, or an
	// allocation racing a decommit pass that has not yet returned enough
	// frames.
	FaultPhysMap = "physmem.map"
	// FaultVmblkCarve fails vmblk creation with ErrNoVA — virtual
	// address-space exhaustion.
	FaultVmblkCarve = "vmblk.carve"
	// FaultPagePoolRefill fails the coalesce-to-page layer's page carve —
	// exhaustion seen from the middle of the stack.
	FaultPagePoolRefill = "pagepool.refill"
)

// PressureConfig sets the free-page watermarks driving the pressure
// model. Zero values select fractions of physical capacity.
type PressureConfig struct {
	// LowPages is the free-page count at or below which the pool is
	// under PressureLow: per-CPU cache targets are halved and the global
	// layer stops retaining its gbltarget surplus. 0 selects capacity/8.
	LowPages int64
	// MinPages is the free-page count at or below which the pool is
	// under PressureCritical: allocation slow paths perform incremental
	// reclaim steps instead of failing into a stop-the-world flush.
	// 0 selects capacity/32 (at least 1).
	MinPages int64
}

func (pc *PressureConfig) watermarks(capacity int64) (low, min int64) {
	low, min = pc.LowPages, pc.MinPages
	if low == 0 {
		low = capacity / 8
	}
	if min == 0 {
		min = capacity / 32
	}
	if min < 1 {
		min = 1
	}
	if low < min {
		low = min
	}
	return low, min
}

// WaitConfig bounds AllocWait's blocking behavior.
type WaitConfig struct {
	// MaxWaits is the number of park/retry rounds before AllocWait gives
	// up with ErrNoMemory (or ErrNoVA). 0 selects 32.
	MaxWaits int
	// BaseBackoffCycles / MaxBackoffCycles bound the exponential backoff
	// charged to the waiting CPU in simulator mode. 0 selects 4096 and
	// 1<<18 respectively.
	BaseBackoffCycles int64
	MaxBackoffCycles  int64
}

// nativeBaseBackoff and nativeMaxBackoff bound AllocWait's real-time
// exponential backoff in native mode; waiters also wake early on frees
// and reclaim progress.
const (
	nativeBaseBackoff = 50 * time.Microsecond
	nativeMaxBackoff  = 5 * time.Millisecond
)

// DefaultWaitConfig is the WaitConfig used when Params.Wait is nil.
var DefaultWaitConfig = WaitConfig{
	MaxWaits:          32,
	BaseBackoffCycles: 4096,
	MaxBackoffCycles:  1 << 18,
}

func (w *WaitConfig) withDefaults() WaitConfig {
	out := DefaultWaitConfig
	if w == nil {
		return out
	}
	if w.MaxWaits > 0 {
		out.MaxWaits = w.MaxWaits
	}
	if w.BaseBackoffCycles > 0 {
		out.BaseBackoffCycles = w.BaseBackoffCycles
	}
	if w.MaxBackoffCycles > 0 {
		out.MaxBackoffCycles = w.MaxBackoffCycles
	}
	if out.MaxBackoffCycles < out.BaseBackoffCycles {
		out.MaxBackoffCycles = out.BaseBackoffCycles
	}
	return out
}

// DefaultTarget is the paper's heuristic limiting the memory tied up in
// per-CPU caches: "This value ranges from 10 for 16-byte blocks to just 2
// for 4096-byte blocks."
func DefaultTarget(size uint32) int {
	t := int(8192 / size)
	if t > 10 {
		t = 10
	}
	if t < 2 {
		t = 2
	}
	return t
}

// DefaultGblTarget is the global-layer capacity parameter in units of
// target-sized lists. The paper's value of 15 for small blocks yields the
// 6.7% (=1/15) worst-case miss rate from the global layer to the
// coalescing layer.
func DefaultGblTarget(size uint32) int {
	g := DefaultTarget(size) * 3 / 2
	if g < 2 {
		g = 2
	}
	return g
}

func (p *Params) withDefaults() Params {
	out := *p
	if out.Classes == nil {
		out.Classes = DefaultClasses
	}
	if out.TargetFor == nil {
		out.TargetFor = DefaultTarget
	}
	if out.GblTargetFor == nil {
		out.GblTargetFor = DefaultGblTarget
	}
	return out
}

func (p *Params) validate(pageBytes, memBytes uint64, vmblkShift uint) error {
	if len(p.Classes) == 0 {
		return fmt.Errorf("core: no size classes")
	}
	prev := uint32(0)
	for _, s := range p.Classes {
		if s < 16 || s&(s-1) != 0 {
			return fmt.Errorf("core: size class %d not a power of two >= 16", s)
		}
		if s <= prev {
			return fmt.Errorf("core: size classes not ascending at %d", s)
		}
		if uint64(s) > pageBytes {
			return fmt.Errorf("core: size class %d exceeds page size %d", s, pageBytes)
		}
		prev = s
	}
	vmblkBytes := uint64(1) << vmblkShift
	if vmblkBytes < 4*pageBytes {
		return fmt.Errorf("core: vmblk size %d too small for page size %d", vmblkBytes, pageBytes)
	}
	if memBytes < vmblkBytes {
		return fmt.Errorf("core: arena size %d smaller than one vmblk (%d)", memBytes, vmblkBytes)
	}
	return nil
}

// Instruction budgets, calibrated to the paper's Measurements section.
// Each fast path's total instruction count = the explicit memory accesses
// it performs (1 instruction each, charged by the access hooks) + the
// interrupt disable/enable pair (2) + the residual straight-line work
// charged here. The totals the simulator reports are asserted by
// TestInstructionCounts to match the paper: cookie alloc/free = 13 each,
// standard alloc = 35, standard free = 32.
const (
	// Cookie alloc: cli/sti (2) + read cache state (1) + pop link (1) +
	// write cache state (1) + residual 8 = 13.
	insnCookieAllocResidual = 8
	// Cookie free: cli/sti (2) + read cache state (1) + push link (1) +
	// write cache state (1) + residual 8 = 13.
	insnCookieFreeResidual = 8
	// Standard alloc adds the function call and the size-to-class table
	// lookup: +1 table read + 21 residual = 35 total.
	insnStdAllocExtra = 21
	// Standard free likewise: +1 table read + 18 residual = 32 total.
	insnStdFreeExtra = 18

	// Slow-path control-flow budgets (data movement is charged by the
	// access hooks as it happens).
	insnRefill    = 20 // per-CPU cache refill/spill bookkeeping
	insnGlobalOp  = 24 // global-layer list push/pop bookkeeping
	insnPageOp    = 28 // coalesce-to-page bookkeeping per block
	insnPageSetup = 40 // carving or releasing one page
	insnSpanOp    = 48 // span alloc/free incl. boundary-tag merge checks
	insnDopeLook  = 6  // two-level dope-vector address arithmetic
	insnHomeMemo  = 2  // vmblk-base compare against the per-CPU home memo
	insnLargeOp   = 32 // large-block path bookkeeping
	insnReclaim   = 400
	// One incremental reclaim step (flush one CPU cache or drain one
	// global pool) — the per-caller charge that replaces insnReclaim's
	// stop-the-world bill under PressureCritical.
	insnReclaimStep = 40
)
