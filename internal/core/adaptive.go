package core

import (
	"sync"
	"sync/atomic"

	"kmem/internal/machine"
)

// The adaptive target controller (Params.Adaptive). The paper fixes
// `target` and `gbltarget` by a static heuristic and proves the per-CPU
// and global miss rates are bounded by 1/target and 1/(target*gbltarget);
// the controller closes that loop online, growing or shrinking each
// class's targets within fixed bounds so the observed miss rates hold
// near a setpoint instead of wherever the static guess lands for the
// actual workload. Its tuning is these constants: nothing in the tree
// ever needed a second value for any of them.
const (
	// adaptWindow is the number of per-CPU-layer operations (fast-path
	// allocs plus frees, summed over CPUs) folded into one miss-rate
	// estimate before the controller considers an adjustment. Global
	// operations are roughly 1/target as frequent, so that estimator's
	// window is scaled down to converge in comparable time.
	adaptWindow    = 512
	adaptGblWindow = adaptWindow / 8

	// adaptSetpoint is the per-CPU-layer miss rate the controller steers
	// toward (the paper's bound for this rate is 1/target);
	// adaptGblSetpoint is the global layer's (bound 1/gbltarget).
	adaptSetpoint    = 0.02
	adaptGblSetpoint = 0.05

	// adaptHysteresis is the relative deadband around each setpoint: no
	// adjustment happens while the observed rate stays within
	// [setpoint*(1-h), setpoint*(1+h)]. The deadband is what keeps the
	// split-freelist exchange sizes stable once the controller has
	// converged.
	adaptHysteresis = 0.5

	// The bounds of the per-CPU cache target — the memory a class can
	// strand per CPU is bounded by 2*adaptMaxTarget blocks — and of the
	// global-layer capacity parameter.
	adaptMinTarget, adaptMaxTarget       = 2, 64
	adaptMinGblTarget, adaptMaxGblTarget = 2, 64

	// adaptShrinkHoldoff is the number of completed windows that must
	// pass after a grow before the controller may shrink the same knob —
	// hysteresis in time, preventing grow/shrink limit cycles on steady
	// workloads.
	adaptShrinkHoldoff = 8
)

// classController holds one size class's two knobs. Every class has a
// controller even with adaptation off: the knobs then simply hold the
// static targets forever, so readers need no enabled-check. Per-CPU
// caches re-read the target lazily on their next refill, spill or
// drain; the global pool re-reads it on every list exchange. Nothing on
// the alloc/free fast path touches this structure.
type classController struct {
	enabled           bool
	target, gbltarget knob
}

// knob is one controlled value with the windowed miss-rate estimator
// that steers it. target's estimator is fed per-CPU-layer operations,
// gbltarget's global-layer ones; everything else about the two is the
// same rule with different constants.
type knob struct {
	// Tuning, fixed at construction: operations per estimate, the miss
	// rate steered toward, the value's bounds, and the decision events.
	winSize          uint64
	setpoint         float64
	min, max         int
	growEv, shrinkEv LayerEvent

	// Current value. Readers use atomic loads; only note writes, under mu.
	val atomic.Int64

	// Windowed estimator feed. Per-CPU ops are reported in deltas at
	// refill/spill time (the reporting CPU batches all fast-path ops
	// since its previous report), so the fast path itself never touches
	// these. A reset may race with a concurrent Add and drop a few ops;
	// the estimator tolerates that.
	winOps, winMiss atomic.Uint64

	// Decision totals, readable without mu.
	grows, shrinks atomic.Uint64

	mu sync.Mutex // serializes adjustments (uncontended in the single-goroutine sim)
	// Controller state, under mu. floor is a ratchet (0 until the first
	// grow): when a grow fires, the value that proved too small becomes a
	// floor the controller will never shrink back to, so a steady workload
	// cannot drive a grow/shrink limit cycle — the controller converges
	// instead.
	window, lastGrow uint64
	floor            int
}

func newClassController(p *Params, target, gbltarget int) *classController {
	ctl := &classController{
		enabled: p.Adaptive,
		target: knob{winSize: adaptWindow, setpoint: adaptSetpoint, min: adaptMinTarget, max: adaptMaxTarget,
			growEv: EvTargetGrow, shrinkEv: EvTargetShrink},
		gbltarget: knob{winSize: adaptGblWindow, setpoint: adaptGblSetpoint, min: adaptMinGblTarget, max: adaptMaxGblTarget,
			growEv: EvGblTargetGrow, shrinkEv: EvGblTargetShrink},
	}
	if ctl.enabled {
		target = min(max(target, adaptMinTarget), adaptMaxTarget)
		gbltarget = min(max(gbltarget, adaptMinGblTarget), adaptMaxGblTarget)
	}
	ctl.target.val.Store(int64(target))
	ctl.gbltarget.val.Store(int64(gbltarget))
	return ctl
}

// curTarget and curGblTarget return the current knob values.
func (ctl *classController) curTarget() int    { return int(ctl.target.val.Load()) }
func (ctl *classController) curGblTarget() int { return int(ctl.gbltarget.val.Load()) }

// Controller bookkeeping cost, charged in the simulator only when
// adaptation is enabled (the paper's static allocator charges nothing).
const (
	insnAdaptNote   = 4  // folding one report into the window estimator
	insnAdaptAdjust = 16 // closing a window and moving a knob
)

// note feeds the knob's estimator: ops operations of its layer since the
// caller's previous report, of which misses crossed to the layer below
// (per-CPU to global for target, global to coalesce-to-page for
// gbltarget). A full window closes here and may move the knob. Called
// only on refill/spill slow paths — the global pool's after its lock is
// released — with no allocator locks held.
func (k *knob) note(a *Allocator, c *machine.CPU, cls int, ops, misses uint64) {
	c.Work(insnAdaptNote)
	o := k.winOps.Add(ops)
	m := k.winMiss.Add(misses)
	if o+m < k.winSize {
		return
	}
	k.mu.Lock()
	o, m = k.winOps.Load(), k.winMiss.Load()
	if o+m < k.winSize {
		// Another CPU closed this window first.
		k.mu.Unlock()
		return
	}
	k.winOps.Store(0)
	k.winMiss.Store(0)
	c.Work(insnAdaptAdjust)
	k.window++
	cur := int(k.val.Load())
	next, ev := k.step(float64(m)/float64(o+m), cur)
	if next != cur {
		k.val.Store(int64(next))
		if ev == k.growEv {
			k.grows.Add(1)
		} else {
			k.shrinks.Add(1)
		}
	}
	k.mu.Unlock()
	if next != cur {
		a.emit(cls, ev, next)
	}
}

// step applies the control rule to the window's miss rate and returns
// the next value (== cur to hold) plus the decision event. Grow is
// multiplicative (fast escape from an undersized cache) and ratchets the
// floor to cur+1: a value observed to miss above the deadband is never
// returned to. Shrink is additive and gated behind the holdoff,
// releasing memory slowly when the workload genuinely quiets down.
// Caller holds mu.
func (k *knob) step(rate float64, cur int) (int, LayerEvent) {
	hi := k.setpoint * (1 + adaptHysteresis)
	lo := k.setpoint * (1 - adaptHysteresis)
	switch {
	case rate > hi && cur < k.max:
		k.floor = max(k.floor, cur+1)
		k.lastGrow = k.window
		return min(cur+cur/2+1, k.max), k.growEv
	case rate < lo && k.window-k.lastGrow >= adaptShrinkHoldoff:
		if cur > max(k.min, k.floor) {
			return cur - 1, k.shrinkEv
		}
	}
	return cur, 0
}
