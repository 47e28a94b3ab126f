package physmem

import (
	"errors"
	"sync"
	"testing"
)

// unmap undoes n pages of Map the way the allocator gives a page back:
// Decommit, then Unreserve.
func unmap(t *testing.T, p *Pool, n int64) {
	t.Helper()
	if err := p.Decommit(n); err != nil {
		t.Fatal(err)
	}
	if err := p.Unreserve(n); err != nil {
		t.Fatal(err)
	}
}

func TestMapUnmap(t *testing.T) {
	p := NewPool(10)
	if err := p.Map(4); err != nil {
		t.Fatal(err)
	}
	if got := p.Mapped(); got != 4 {
		t.Fatalf("Mapped = %d", got)
	}
	if got := p.Available(); got != 6 {
		t.Fatalf("Available = %d", got)
	}
	unmap(t, p, 3)
	if got := p.Mapped(); got != 1 {
		t.Fatalf("Mapped after unmap = %d", got)
	}
}

func TestExhaustion(t *testing.T) {
	p := NewPool(5)
	if err := p.Map(5); err != nil {
		t.Fatal(err)
	}
	err := p.Map(1)
	if !errors.Is(err, ErrNoPages) {
		t.Fatalf("err = %v, want ErrNoPages", err)
	}
	// All-or-nothing: a partial map must not consume pages.
	unmap(t, p, 2)
	if err := p.Map(3); !errors.Is(err, ErrNoPages) {
		t.Fatalf("err = %v, want ErrNoPages (3 > 2 available)", err)
	}
	if err := p.Map(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Map(1); !errors.Is(err, ErrNoPages) {
		t.Fatalf("err = %v, want ErrNoPages", err)
	}
}

func TestStats(t *testing.T) {
	p := NewPool(8)
	_ = p.Map(6)
	unmap(t, p, 2)
	_ = p.Map(1)
	_ = p.Map(100) // fails
	s := p.Stats()
	if s.Capacity != 8 || s.Mapped != 5 || s.HighWater != 6 ||
		s.MapOps != 7 || s.UnmapOps != 2 || s.Failures != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPanics(t *testing.T) {
	p := NewPool(4)
	for name, f := range map[string]func(){
		"zero capacity":   func() { NewPool(0) },
		"decommit excess": func() { _ = p.Decommit(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBadCountErrors(t *testing.T) {
	p := NewPool(4)
	for name, err := range map[string]error{
		"map zero":      p.Map(0),
		"map negative":  p.Map(-3),
		"decommit zero": p.Decommit(0),
		"unreserve neg": p.Unreserve(-1),
	} {
		if !errors.Is(err, ErrBadCount) {
			t.Errorf("%s: err = %v, want ErrBadCount", name, err)
		}
	}
	// None of those may have touched the accounting.
	if s := p.Stats(); s.Mapped != 0 || s.MapOps != 0 || s.UnmapOps != 0 {
		t.Fatalf("bad-count calls changed accounting: %+v", s)
	}
}

func TestWatermarksAndPressure(t *testing.T) {
	p := NewPool(100)
	if p.Pressure() != PressureOK {
		t.Fatal("pressure model active without watermarks")
	}
	if err := p.SetWatermarks(20, 5); err != nil {
		t.Fatal(err)
	}
	var transitions []string
	p.SetPressureFunc(func(old, new PressureLevel) {
		transitions = append(transitions, old.String()+">"+new.String())
	})
	_ = p.Map(70) // free 30: ok
	if p.Pressure() != PressureOK {
		t.Fatalf("pressure at free=30 = %v", p.Pressure())
	}
	_ = p.Map(15) // free 15: low
	if p.Pressure() != PressureLow {
		t.Fatalf("pressure at free=15 = %v", p.Pressure())
	}
	_ = p.Map(12) // free 3: critical
	if p.Pressure() != PressureCritical {
		t.Fatalf("pressure at free=3 = %v", p.Pressure())
	}
	unmap(t, p, 95) // free 98: back to ok
	want := []string{"ok>low", "low>critical", "critical>ok"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
	s := p.Stats()
	if s.LowWater != 20 || s.MinWater != 5 || s.Pressure != PressureOK ||
		s.Transitions != 3 || s.Free != 98 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSetWatermarksValidation(t *testing.T) {
	p := NewPool(10)
	for name, pair := range map[string][2]int64{
		"min negative":   {5, -1},
		"low below min":  {2, 5},
		"low > capacity": {11, 1},
	} {
		if err := p.SetWatermarks(pair[0], pair[1]); err == nil {
			t.Errorf("%s: SetWatermarks(%d, %d) accepted", name, pair[0], pair[1])
		}
	}
	if err := p.SetWatermarks(0, 0); err != nil {
		t.Fatalf("disabling watermarks: %v", err)
	}
}

func TestMapHook(t *testing.T) {
	p := NewPool(10)
	fail := errors.New("injected")
	var seen []int64
	p.SetMapHook(func(n int64) error {
		seen = append(seen, n)
		if len(seen) == 2 {
			return fail
		}
		return nil
	})
	if err := p.Map(3); err != nil {
		t.Fatal(err)
	}
	if err := p.Map(4); !errors.Is(err, fail) {
		t.Fatalf("err = %v, want injected", err)
	}
	if got := p.Mapped(); got != 3 {
		t.Fatalf("vetoed Map claimed pages: Mapped = %d", got)
	}
	if s := p.Stats(); s.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", s.Failures)
	}
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 4 {
		t.Fatalf("hook saw %v", seen)
	}
	p.SetMapHook(nil)
	if err := p.Map(1); err != nil {
		t.Fatal(err)
	}
}

func TestReserveCommitSplit(t *testing.T) {
	p := NewPool(8)
	// Reservations are VA-only: they exceed physical capacity freely.
	if err := p.Reserve(100); err != nil {
		t.Fatal(err)
	}
	if got := p.Reserved(); got != 100 {
		t.Fatalf("Reserved = %d", got)
	}
	if got := p.Mapped(); got != 0 {
		t.Fatalf("reservation consumed frames: Mapped = %d", got)
	}
	// Commit consumes physical capacity, bounded by it.
	if err := p.Commit(6); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(3); !errors.Is(err, ErrNoPages) {
		t.Fatalf("Commit past capacity: err = %v, want ErrNoPages", err)
	}
	// Decommit frees frames but keeps the reservation.
	if err := p.Decommit(4); err != nil {
		t.Fatal(err)
	}
	if got := p.Mapped(); got != 2 {
		t.Fatalf("Mapped after decommit = %d", got)
	}
	if got := p.Reserved(); got != 100 {
		t.Fatalf("decommit shrank the reservation: Reserved = %d", got)
	}
	if err := p.Commit(6); err != nil {
		t.Fatal(err)
	}
	p.Decommit(8)
	if err := p.Unreserve(100); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Reserved != 0 || s.Mapped != 0 || s.ReserveOps != 100 || s.UnreserveOps != 100 ||
		s.MapOps != 12 || s.UnmapOps != 12 || s.HighWater != 8 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCommitUnreservePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"commit beyond reservation": func() {
			p := NewPool(8)
			_ = p.Reserve(2)
			_ = p.Commit(3)
		},
		"unreserve below resident": func() {
			p := NewPool(8)
			_ = p.Map(4)
			_ = p.Unreserve(1) // all 4 reserved pages still resident
		},
		"decommit excess": func() {
			p := NewPool(8)
			_ = p.Map(2)
			_ = p.Decommit(3)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestMapHookUnwindRestoresPressure is the regression test for the
// hook-failure unwind: a vetoed commit that provisionally crossed a
// watermark must restore the prior pressure level and fire the
// compensating transition, leaving observers with a symmetric
// raise/restore pair rather than a phantom elevated level.
func TestMapHookUnwindRestoresPressure(t *testing.T) {
	p := NewPool(100)
	if err := p.SetWatermarks(20, 5); err != nil {
		t.Fatal(err)
	}
	var transitions []string
	p.SetPressureFunc(func(old, new PressureLevel) {
		transitions = append(transitions, old.String()+">"+new.String())
	})
	if err := p.Map(70); err != nil { // free 30: ok
		t.Fatal(err)
	}
	fail := errors.New("injected")
	p.SetMapHook(func(n int64) error { return fail })
	// This map would drop free pages to 10 (low) — the hook vetoes it, so
	// the level must come back to ok and the accounting to 70 resident.
	if err := p.Map(20); !errors.Is(err, fail) {
		t.Fatalf("err = %v, want injected", err)
	}
	if got := p.Pressure(); got != PressureOK {
		t.Fatalf("pressure after vetoed map = %v, want ok", got)
	}
	if got := p.Mapped(); got != 70 {
		t.Fatalf("Mapped after vetoed map = %d, want 70", got)
	}
	if got := p.Reserved(); got != 70 {
		t.Fatalf("Reserved after vetoed map = %d, want 70", got)
	}
	want := []string{"ok>low", "low>ok"}
	if len(transitions) != len(want) || transitions[0] != want[0] || transitions[1] != want[1] {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	s := p.Stats()
	if s.Failures != 1 || s.Transitions != 2 || s.MapOps != 70 {
		t.Fatalf("stats = %+v", s)
	}
	// Disarmed, the same map succeeds and lands at low.
	p.SetMapHook(nil)
	if err := p.Map(20); err != nil {
		t.Fatal(err)
	}
	if got := p.Pressure(); got != PressureLow {
		t.Fatalf("pressure = %v, want low", got)
	}
}

func TestConcurrentMapUnmap(t *testing.T) {
	p := NewPool(1000)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if err := p.Map(2); err == nil {
					_ = p.Decommit(2)
					_ = p.Unreserve(2)
				}
			}
		}()
	}
	wg.Wait()
	if got := p.Mapped(); got != 0 {
		t.Fatalf("Mapped = %d after balanced ops", got)
	}
}
