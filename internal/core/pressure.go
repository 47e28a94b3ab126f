package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"kmem/internal/arena"
	"kmem/internal/machine"
	"kmem/internal/physmem"
)

// This file is the memory-pressure resilience layer: watermark-driven
// graceful degradation, the switch to incremental reclaim (lowmem.go),
// and blocking (KM_SLEEP-style) allocation. All of it is opt-in — with
// Params.Pressure nil the allocator's pressure level is permanently
// PressureOK, every branch below resolves to the pre-pressure behavior,
// and the simulator's cycle counts are unchanged (the level checks are
// plain atomic loads, which charge nothing).

// PressureLevel re-exports the physmem pressure classification.
type PressureLevel = physmem.PressureLevel

// Pressure levels, in increasing severity.
const (
	PressureOK       = physmem.PressureOK
	PressureLow      = physmem.PressureLow
	PressureCritical = physmem.PressureCritical
)

// Pressure returns the allocator's view of the physmem pool's pressure
// level, maintained by the transition callback registered in
// initPressure. A plain atomic load: safe on fast paths, free in the
// simulator.
func (a *Allocator) Pressure() PressureLevel { return PressureLevel(a.pressure.Load()) }

// effTarget degrades a per-CPU cache target under pressure: at
// PressureLow and above, targets are halved (minimum 1), so caches
// retain less and frees spill sooner. With the pressure model off it is
// the identity. The remote-free shards use the same clamped value as
// their flush threshold, so under pressure staged remote blocks also
// reach their home pools (and from there the coalescing layer) in half
// the time.
func (a *Allocator) effTarget(t int) int {
	if a.pressure.Load() == 0 {
		return t
	}
	t /= 2
	if t < 1 {
		t = 1
	}
	return t
}

// initPressure wires the opt-in pressure model: watermarks on the
// physmem pool, the level-mirroring transition callback, and the
// fault-injection map hook. Called once from New.
func (a *Allocator) initPressure() error {
	phys := a.m.Phys()
	if pc := a.params.Pressure; pc != nil {
		low, min := pc.watermarks(phys.Stats().Capacity)
		if err := phys.SetWatermarks(low, min); err != nil {
			return err
		}
		phys.SetPressureFunc(func(old, new physmem.PressureLevel) {
			a.pressure.Store(int32(new))
			a.note(-1, EvPressure, int(new)+1)
			if new < old {
				// Easing pressure means pages came free; release waiters.
				a.wakeAll()
			}
		})
	}
	if f := a.params.Faults; f != nil {
		phys.SetMapHook(func(n int64) error {
			if f.Should(FaultPhysMap) {
				a.note(-1, EvFaultInjected, 1)
				return physmem.ErrNoPages
			}
			return nil
		})
	}
	return nil
}

// exhaustErr maps a slow-path failure to the facade's typed exhaustion
// errors: virtual address-space exhaustion stays distinguishable from a
// physical-frame shortage instead of collapsing into ErrNoMemory.
func exhaustErr(err error) error {
	if errors.Is(err, ErrNoVA) {
		return ErrNoVA
	}
	return ErrNoMemory
}

// --- wait queues and AllocWait -------------------------------------------

// waitq parks native-mode AllocWait callers for one size class (the last
// queue serves large requests). Wakeups use closed-channel broadcast: a
// waiter takes the current gate channel and registers *before* its
// allocation attempt, and wake closes that same channel — so any free
// published after a failed attempt is guaranteed to release the waiter.
// The nwait fast path keeps the free/reclaim side at one atomic load
// when nobody waits; the simulator never parks (it charges idle cycles
// instead), so nwait stays 0 there and wakeups are no-ops.
type waitq struct {
	mu    sync.Mutex
	ch    chan struct{}
	nwait atomic.Int32
}

// gate returns the channel the next wake will close, creating it lazily.
func (w *waitq) gate() chan struct{} {
	w.mu.Lock()
	if w.ch == nil {
		w.ch = make(chan struct{})
	}
	ch := w.ch
	w.mu.Unlock()
	return ch
}

// wake broadcasts to every parked waiter; returns how many were
// registered. Cheap (one atomic load) when the queue is empty.
func (w *waitq) wake() int {
	if w.nwait.Load() == 0 {
		return 0
	}
	w.mu.Lock()
	n := int(w.nwait.Load())
	if w.ch != nil {
		close(w.ch)
		w.ch = nil
	}
	w.mu.Unlock()
	return n
}

// wakeClass releases waiters of one size class after its blocks became
// available.
func (a *Allocator) wakeClass(cls int) {
	if n := a.waitqs[cls].wake(); n > 0 {
		a.note(cls, EvWake, n)
	}
}

// wakeAll releases every waiter — pages were unmapped or reclaim made
// progress, so any class (and the large path) may now succeed.
func (a *Allocator) wakeAll() {
	for cls := range a.classes {
		a.wakeClass(cls)
	}
	if n := a.waitqs[len(a.classes)].wake(); n > 0 {
		a.note(-1, EvWake, n) // the large-request queue
	}
}

// AllocWait is the blocking (DYNIX KM_SLEEP-style) allocation: on
// exhaustion it parks on the size class's wait queue with bounded
// exponential backoff and retries when frees or reclaim progress wake
// it, failing with the typed exhaustion error only after
// WaitConfig.MaxWaits rounds. In the simulator the park is a charged
// idle period (deterministic: other simulated CPUs run and may free
// memory); in native mode it is a real wait with an early wakeup on the
// class's gate channel and a backoff timer as backstop.
func (a *Allocator) AllocWait(c *machine.CPU, size uint64) (arena.Addr, error) {
	if a.badSize(size) {
		return arena.NilAddr, ErrBadSize
	}
	cls, small := a.classOf(size)
	qi := cls
	if !small {
		qi = len(a.classes) // large requests share the final queue
	}
	wq := &a.waitqs[qi]
	sim := a.m.Config().Mode == machine.Sim
	backoffCycles := a.waitCfg.BaseBackoffCycles
	backoff := nativeBaseBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		var ch chan struct{}
		if !sim {
			// Register before the attempt: a free that lands after this
			// point closes ch, so a failure below cannot miss it.
			ch = wq.gate()
			wq.nwait.Add(1)
		}
		addr, err := a.Alloc(c, size)
		if err == nil {
			if !sim {
				wq.nwait.Add(-1)
			}
			return addr, nil
		}
		lastErr = err
		if attempt >= a.waitCfg.MaxWaits {
			if !sim {
				wq.nwait.Add(-1)
			}
			return arena.NilAddr, lastErr
		}
		a.note(cls, EvWait, 1)
		if sim {
			c.Idle(backoffCycles)
			backoffCycles *= 2
			if backoffCycles > a.waitCfg.MaxBackoffCycles {
				backoffCycles = a.waitCfg.MaxBackoffCycles
			}
		} else {
			t := time.NewTimer(backoff)
			select {
			case <-ch:
				t.Stop()
			case <-t.C:
			}
			wq.nwait.Add(-1)
			backoff *= 2
			if backoff > nativeMaxBackoff {
				backoff = nativeMaxBackoff
			}
		}
	}
}
