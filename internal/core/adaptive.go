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

// classController holds one size class's current targets and, when
// adaptation is enabled, the windowed miss-rate estimators that steer
// them. Every class has a controller even with adaptation off: the
// atomics then simply hold the static targets forever, so readers need
// no enabled-check. Per-CPU caches re-read the target lazily on their
// next refill, spill or drain; the global pool re-reads it on every
// list exchange. Nothing on the alloc/free fast path touches this
// structure.
type classController struct {
	enabled bool

	// Current knob values. Readers use atomic loads; only adjust()
	// writes, under mu.
	target    atomic.Int64
	gbltarget atomic.Int64

	// Windowed estimator feeds. Per-CPU ops are reported in deltas at
	// refill/spill time (the reporting CPU batches all fast-path ops
	// since its previous report), so the fast path itself never touches
	// these. A reset may race with a concurrent Add and drop a few ops;
	// the estimator tolerates that.
	winOps   atomic.Uint64
	winMiss  atomic.Uint64
	gwinOps  atomic.Uint64
	gwinMiss atomic.Uint64

	// Decision totals, readable without mu.
	grows, shrinks       atomic.Uint64
	gblGrows, gblShrinks atomic.Uint64

	mu sync.Mutex // serializes adjustments (uncontended in the single-goroutine sim)
	// Controller state, under mu. floor is a ratchet: when a grow fires,
	// the value that proved too small becomes a floor the controller will
	// never shrink back to, so a steady workload cannot drive a
	// grow/shrink limit cycle — the controller converges instead.
	window, lastGrow   uint64
	floor              int
	gwindow, gLastGrow uint64
	gblFloor           int
}

func newClassController(p *Params, target, gbltarget int) *classController {
	ctl := &classController{enabled: p.Adaptive}
	if ctl.enabled {
		target = min(max(target, adaptMinTarget), adaptMaxTarget)
		gbltarget = min(max(gbltarget, adaptMinGblTarget), adaptMaxGblTarget)
		ctl.floor = adaptMinTarget
		ctl.gblFloor = adaptMinGblTarget
	}
	ctl.target.Store(int64(target))
	ctl.gbltarget.Store(int64(gbltarget))
	return ctl
}

// curTarget and curGblTarget return the current knob values.
func (ctl *classController) curTarget() int    { return int(ctl.target.Load()) }
func (ctl *classController) curGblTarget() int { return int(ctl.gbltarget.Load()) }

// Controller bookkeeping cost, charged in the simulator only when
// adaptation is enabled (the paper's static allocator charges nothing).
const (
	insnAdaptNote   = 4  // folding one report into the window estimator
	insnAdaptAdjust = 16 // closing a window and moving a knob
)

// noteCPU feeds the per-CPU-layer estimator: ops fast-path operations
// since the reporting CPU's previous report, of which misses crossed the
// per-CPU/global boundary. Called only on refill/spill slow paths with
// no allocator locks held.
func (ctl *classController) noteCPU(a *Allocator, c *machine.CPU, cls int, ops, misses uint64) {
	c.Work(insnAdaptNote)
	o := ctl.winOps.Add(ops)
	m := ctl.winMiss.Add(misses)
	if o+m < adaptWindow {
		return
	}
	ctl.adjustCPU(a, c, cls)
}

func (ctl *classController) adjustCPU(a *Allocator, c *machine.CPU, cls int) {
	ctl.mu.Lock()
	o, m := ctl.winOps.Load(), ctl.winMiss.Load()
	if o+m < adaptWindow {
		// Another CPU closed this window first.
		ctl.mu.Unlock()
		return
	}
	ctl.winOps.Store(0)
	ctl.winMiss.Store(0)
	c.Work(insnAdaptAdjust)
	ctl.window++
	rate := float64(m) / float64(o+m)
	cur := int(ctl.target.Load())
	next, ev := ctl.step(rate, adaptSetpoint, cur,
		adaptMinTarget, adaptMaxTarget, &ctl.floor,
		ctl.window, &ctl.lastGrow, EvTargetGrow, EvTargetShrink)
	if next != cur {
		ctl.target.Store(int64(next))
		if ev == EvTargetGrow {
			ctl.grows.Add(1)
		} else {
			ctl.shrinks.Add(1)
		}
	}
	ctl.mu.Unlock()
	if next != cur {
		a.emit(cls, ev, next)
	}
}

// noteGbl feeds the global-layer estimator: ops global get/put
// operations, of which misses crossed the global/coalesce-to-page
// boundary. Called from the global pool's slow paths after its lock is
// released.
func (ctl *classController) noteGbl(a *Allocator, c *machine.CPU, cls int, ops, misses uint64) {
	c.Work(insnAdaptNote)
	o := ctl.gwinOps.Add(ops)
	m := ctl.gwinMiss.Add(misses)
	if o+m < adaptGblWindow {
		return
	}
	ctl.mu.Lock()
	o, m = ctl.gwinOps.Load(), ctl.gwinMiss.Load()
	if o+m < adaptGblWindow {
		ctl.mu.Unlock()
		return
	}
	ctl.gwinOps.Store(0)
	ctl.gwinMiss.Store(0)
	c.Work(insnAdaptAdjust)
	ctl.gwindow++
	rate := float64(m) / float64(o+m)
	cur := int(ctl.gbltarget.Load())
	next, ev := ctl.step(rate, adaptGblSetpoint, cur,
		adaptMinGblTarget, adaptMaxGblTarget, &ctl.gblFloor,
		ctl.gwindow, &ctl.gLastGrow, EvGblTargetGrow, EvGblTargetShrink)
	if next != cur {
		ctl.gbltarget.Store(int64(next))
		if ev == EvGblTargetGrow {
			ctl.gblGrows.Add(1)
		} else {
			ctl.gblShrinks.Add(1)
		}
	}
	ctl.mu.Unlock()
	if next != cur {
		a.emit(cls, ev, next)
	}
}

// step applies the shared control rule to one knob and returns the next
// value (== cur to hold) plus the decision event. Grow is multiplicative
// (fast escape from an undersized cache) and ratchets the floor to
// cur+1: a value observed to miss above the deadband is never returned
// to. Shrink is additive and gated behind the holdoff, releasing memory
// slowly when the workload genuinely quiets down.
func (ctl *classController) step(rate, setpoint float64, cur, min, max int, floor *int,
	window uint64, lastGrow *uint64, growEv, shrinkEv LayerEvent) (int, LayerEvent) {
	hi := setpoint * (1 + adaptHysteresis)
	lo := setpoint * (1 - adaptHysteresis)
	switch {
	case rate > hi && cur < max:
		if f := cur + 1; f > *floor {
			*floor = f
		}
		*lastGrow = window
		next := cur + cur/2 + 1
		if next > max {
			next = max
		}
		return next, growEv
	case rate < lo && window-*lastGrow >= adaptShrinkHoldoff:
		bound := min
		if *floor > bound {
			bound = *floor
		}
		if cur > bound {
			return cur - 1, shrinkEv
		}
	}
	return cur, 0
}
