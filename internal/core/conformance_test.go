package core_test

import (
	"strings"
	"testing"

	"kmem/internal/allocif"
	"kmem/internal/alloctest"
	"kmem/internal/core"
	"kmem/internal/harden"
	"kmem/internal/machine"
)

func factory(cookie, lazy bool) alloctest.Factory {
	return func(t *testing.T, ncpu int, physPages int64) alloctest.Instance {
		cfg := machine.DefaultConfig()
		cfg.NumCPUs = ncpu
		cfg.MemBytes = 16 << 20
		cfg.PhysPages = physPages
		m := machine.New(cfg)
		a, err := core.New(m, core.Params{LazySpans: lazy})
		if err != nil {
			t.Fatal(err)
		}
		var iface allocif.Allocator
		if cookie {
			iface = allocif.NewCookieKMA(a)
		} else {
			iface = allocif.NewKMA{Allocator: a}
		}
		return alloctest.Instance{
			A:         iface,
			M:         m,
			MaxSize:   1 << 20, // the large path serves beyond the classes
			Coalesces: true,
			Check:     a.CheckConsistency,
		}
	}
}

func TestConformanceStandard(t *testing.T) {
	alloctest.Run(t, factory(false, false))
}

func TestConformanceCookie(t *testing.T) {
	alloctest.Run(t, factory(true, false))
}

// The lazy virtual-span mode must satisfy the identical external
// contract: over-reservation, commit-on-carve, and decommit under
// pressure are invisible to callers.
func TestConformanceStandardLazy(t *testing.T) {
	alloctest.Run(t, factory(false, true))
}

func TestConformanceCookieLazy(t *testing.T) {
	alloctest.Run(t, factory(true, true))
}

// The typed object-cache lifecycle must hold over both adapters: NewKMA
// (cookie + shed probes resolve) and CookieKMA (the same, promoted from the allocator it embeds).
func TestObjCacheLifecycle(t *testing.T) {
	alloctest.RunObjCache(t, factory(false, false))
}

func TestObjCacheLifecycleCookie(t *testing.T) {
	alloctest.RunObjCache(t, factory(true, false))
}

func TestObjCacheLifecycleLazy(t *testing.T) {
	alloctest.RunObjCache(t, factory(false, true))
}

// optFactory builds the allocator with the optimistic fast paths
// configured, for the concurrent conformance suite: restartable
// per-CPU sequences, the CAS-based global layer, or both, in either
// machine mode. (LockFree is a Sim-only commit model that core.New
// refuses on a Native machine; the rseq path is live in both.)
func optFactory(rseq, lockFree bool, mode machine.Mode) alloctest.Factory {
	return func(t *testing.T, ncpu int, physPages int64) alloctest.Instance {
		cfg := machine.DefaultConfig()
		cfg.Mode = mode
		cfg.NumCPUs = ncpu
		cfg.MemBytes = 16 << 20
		cfg.PhysPages = physPages
		m := machine.New(cfg)
		a, err := core.New(m, core.Params{Rseq: rseq, LockFree: lockFree})
		if err != nil {
			t.Fatal(err)
		}
		return alloctest.Instance{
			A:         allocif.NewKMA{Allocator: a},
			M:         m,
			MaxSize:   1 << 20,
			Coalesces: true,
			Check:     a.CheckConsistency,
		}
	}
}

// The concurrent conformance suite: all-CPU Alloc/Free under aggressive
// restart jitter, shadow oracle plus consistency audits, across every
// fast-path configuration. The Native variant runs real goroutines and
// is the -race coverage for the rseq interference path.
func TestConcurrentGetPut(t *testing.T) {
	alloctest.RunConcurrentGetPut(t, factory(false, false))
}

func TestConcurrentGetPutRseq(t *testing.T) {
	alloctest.RunConcurrentGetPut(t, optFactory(true, false, machine.Sim))
}

func TestConcurrentGetPutLockFree(t *testing.T) {
	alloctest.RunConcurrentGetPut(t, optFactory(false, true, machine.Sim))
}

func TestConcurrentGetPutOptimistic(t *testing.T) {
	alloctest.RunConcurrentGetPut(t, optFactory(true, true, machine.Sim))
}

func TestConcurrentGetPutNative(t *testing.T) {
	alloctest.RunConcurrentGetPut(t, optFactory(true, false, machine.Native))
}

// TestNewRefusesUnhonourableFlags: a flag the machine's mode cannot
// honour is an error naming the flag and the mode, not a silent no-op.
func TestNewRefusesUnhonourableFlags(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   machine.Mode
		params core.Params
		want   []string // substrings of the error; nil means New succeeds
	}{
		{"lockfree sim", machine.Sim, core.Params{LockFree: true}, nil},
		{"rseq native", machine.Native, core.Params{Rseq: true}, nil},
		{"lockfree native", machine.Native, core.Params{LockFree: true}, []string{"LockFree", "Native"}},
		{"optimistic native", machine.Native, core.Params{Rseq: true, LockFree: true}, []string{"LockFree", "Native"}},
	} {
		cfg := machine.DefaultConfig()
		cfg.Mode = tc.mode
		cfg.MemBytes = 16 << 20
		a, err := core.New(machine.New(cfg), tc.params)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: New failed: %v", tc.name, err)
			}
			continue
		}
		if err == nil || a != nil {
			t.Errorf("%s: New accepted a flag the mode cannot honour", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
	}
}

// hardenedFactory builds the allocator with the corruption-hardening
// layer on (quarantine-and-continue policy) and exposes its report log,
// so the corruption suite asserts detection rather than just survival.
func hardenedFactory() alloctest.Factory {
	return func(t *testing.T, ncpu int, physPages int64) alloctest.Instance {
		cfg := machine.DefaultConfig()
		cfg.NumCPUs = ncpu
		cfg.MemBytes = 16 << 20
		cfg.PhysPages = physPages
		m := machine.New(cfg)
		a, err := core.New(m, core.Params{Harden: &harden.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		return alloctest.Instance{
			A:         allocif.NewKMA{Allocator: a},
			M:         m,
			MaxSize:   1 << 20,
			Coalesces: true,
			Check:     a.CheckConsistency,
			Reports:   func() []harden.Report { return a.HardenReports(m.CPU(0)) },
		}
	}
}

// The hardened allocator must pass the full conformance suite unchanged
// — redzones and poison shift block geometry but not the contract.
func TestConformanceHardened(t *testing.T) {
	alloctest.Run(t, hardenedFactory())
}

func TestCorruptionHardened(t *testing.T) {
	alloctest.RunCorruption(t, hardenedFactory())
}

// Without hardening the same plants are documented UB: the suite only
// demands that nothing hangs.
func TestCorruptionUnhardened(t *testing.T) {
	alloctest.RunCorruption(t, factory(false, false))
}
