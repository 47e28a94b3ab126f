package machine

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// perCPULiveBytes is the offset just past PerCPU's last named field:
// everything a section reads or writes lies below it, the pad above.
func perCPULiveBytes() uintptr {
	var live uintptr
	t := reflect.TypeOf(PerCPU{})
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Name != "_" {
			if end := f.Offset + f.Type.Size(); end > live {
				live = end
			}
		}
	}
	return live
}

func nativeMachine(ncpu int) *Machine {
	cfg := DefaultConfig()
	cfg.Mode = Native
	cfg.NumCPUs = ncpu
	return New(cfg)
}

// TestPerCPULayout: no two adjacent elements of a []PerCPU can have live
// words on one 64-byte line, under either protocol and wherever the
// slice lands — first from the struct's geometry (every base address its
// alignment allows), then on the addresses of real slices.
func TestPerCPULayout(t *testing.T) {
	size, align, live := unsafe.Sizeof(PerCPU{}), uintptr(unsafe.Alignof(PerCPU{})), perCPULiveBytes()
	if size%align != 0 || live > size {
		t.Fatalf("size %d, align %d, live %d", size, align, live)
	}
	for base := uintptr(0); base < HostLineBytes; base += align {
		if (base+live-1)/HostLineBytes >= (base+size)/HostLineBytes {
			t.Errorf("base %%%d = %d: element 0's last live byte and element 1's first share a line (size %d, live %d)",
				HostLineBytes, base, size, live)
		}
	}
	m := nativeMachine(8)
	for _, rseq := range []bool{false, true} {
		for n := 2; n <= 8; n++ {
			s := make([]PerCPU, n)
			for i := range s {
				s[i] = NewPerCPUOn(m, 0, rseq)
			}
			for i := 0; i+1 < n; i++ {
				end := uintptr(unsafe.Pointer(&s[i])) + live - 1
				next := uintptr(unsafe.Pointer(&s[i+1]))
				if end/HostLineBytes >= next/HostLineBytes {
					t.Errorf("rseq=%v n=%d: elements %d and %d share a line (%#x, %#x)", rseq, n, i, i+1, end, next)
				}
			}
		}
	}
}

// TestPerCPUNativeExclusion runs one owner goroutine in Enter/Exit
// against one foreign goroutine in EnterForeign/ExitForeign on a Native
// machine. Native runs one protocol, the claim word, whichever protocol
// a section models in Sim, so both constructions must behave alike. The
// guarded words are plain variables, so the race detector convicts a
// section that does not exclude; the restart tally is kept the way
// callers keep it — from Enter's result, inside the section — and the
// foreign side reads it there. Restarts must occur (the owner keeps
// going until one does) and never outnumber the foreign sections that
// cause them.
func TestPerCPUNativeExclusion(t *testing.T) {
	const minIters, maxIters = 20_000, 200_000_000
	for _, rseq := range []bool{false, true} {
		name := "intr"
		if rseq {
			name = "rseq"
		}
		t.Run(name, func(t *testing.T) {
			m := nativeMachine(2)
			cs := NewPerCPUOn(m, 0, rseq)
			var inside, ownerOps, foreignOps, restarts, seen int
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				c := m.CPU(0)
				for i := 0; i < maxIters; i++ {
					n := cs.Enter(c)
					inside++
					restarts += n
					ownerOps++
					stop := inside != 1 || (i >= minIters && restarts > 0)
					inside--
					cs.Exit(c)
					if stop {
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				c := m.CPU(1)
				for !done.Load() {
					cs.EnterForeign(c)
					inside++
					if inside != 1 {
						t.Errorf("foreign section entered with %d inside", inside-1)
					}
					foreignOps++
					seen = restarts
					inside--
					cs.ExitForeign(c)
				}
			}()
			wg.Wait()
			if seen > restarts {
				t.Errorf("foreign read %d restarts, owner tallied %d", seen, restarts)
			}
			switch {
			case restarts == 0:
				t.Errorf("no restart reported in %d owner sections against %d foreign ones", ownerOps, foreignOps)
			case restarts > foreignOps:
				t.Errorf("%d restarts from %d foreign sections", restarts, foreignOps)
			}
		})
	}
}

// TestPerCPUOwnerOverlapPanics: on a Native machine the claim word is
// the ownership check. An owner that enters while another owner holds
// the section panics, under both constructions, and leaves the holder's
// claim alone: after its Exit, a foreign section and an undisturbed
// owner section run as before.
func TestPerCPUOwnerOverlapPanics(t *testing.T) {
	for _, rseq := range []bool{false, true} {
		m := nativeMachine(2)
		cs := NewPerCPUOn(m, 0, rseq)
		c := m.CPU(0)
		cs.Enter(c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rseq=%v: a second owner entered the held section", rseq)
				}
			}()
			cs.Enter(c)
		}()
		cs.Exit(c)
		cs.EnterForeign(m.CPU(1))
		cs.ExitForeign(m.CPU(1))
		if n := cs.Enter(c); n != 0 {
			t.Errorf("rseq=%v: undisturbed Enter reported %d restarts", rseq, n)
		}
		cs.Exit(c)
	}
}

// TestPerCPURseqSimCharges pins the restartable protocol's Sim cost: an
// undisturbed owner section is 2 instructions + CommitCycles, split one
// instruction either side of the body, and a foreign entry is one
// bus-locked RMW on the descriptor line plus the fence.
func TestPerCPURseqSimCharges(t *testing.T) {
	m := simMachine(2)
	cs := NewPerCPUOn(m, 0, true)
	c := m.CPU(0)
	t0, i0 := c.Now(), c.Stats().Instructions
	if n := cs.Enter(c); n != 0 {
		t.Fatalf("unjittered Enter reported %d restarts", n)
	}
	if got := c.Now() - t0; got != CyclesPerInsn {
		t.Errorf("Enter cost %d cycles, want %d", got, CyclesPerInsn)
	}
	cs.Exit(c)
	if got, want := c.Now()-t0, 2*CyclesPerInsn+CommitCycles; got != want {
		t.Errorf("section cost %d cycles, want %d", got, want)
	}
	if got := c.Stats().Instructions - i0; got != 2 {
		t.Errorf("section cost %d instructions, want 2", got)
	}

	f := m.CPU(1)
	ref := m.CPU(1).Now()
	f.Atomic(m.NewMetaLine()) // the same cold RMW on a line of its own
	rmw := f.Now() - ref
	t1, a1 := f.Now(), f.Stats().Atomics
	cs.EnterForeign(f)
	cs.ExitForeign(f)
	if got, want := f.Now()-t1, rmw+FenceCycles; got != want {
		t.Errorf("foreign section cost %d cycles, want %d", got, want)
	}
	if got := f.Stats().Atomics - a1; got != 1 {
		t.Errorf("foreign section issued %d atomics, want 1", got)
	}
}
