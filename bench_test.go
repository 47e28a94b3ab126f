// Host-time benchmarks. The simulator is deterministic, so a sweep's
// virtual numbers are the same on every run and live in its output
// (`kmembench <sweep>`, EXPERIMENTS.md); what a testing.B adds is the
// wall clock — how long the host takes to run a sweep, and what the
// allocator costs as an ordinary Go library.
package kmem

import (
	"flag"
	"io"
	"runtime"
	"testing"

	"kmem/internal/bench"
)

// BenchmarkSweep times every experiment of the index (bench.Sweeps, what
// `kmembench` runs) at its first smoke argument set: ns/op is host time
// per sweep at that size, rendering included.
func BenchmarkSweep(b *testing.B) {
	for _, s := range bench.Sweeps {
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := s.Run(flag.NewFlagSet(s.Name, flag.ContinueOnError), s.Smoke[0])
				if err == nil {
					err = rep.Write(io.Discard)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGoHeapAllocFree is the host-Go-allocator baseline for
// BenchmarkNativeAllocFree: the same alloc/free pattern through Go's
// runtime allocator (kept honest with KeepAlive against dead-code
// elimination; the GC inevitably participates).
func BenchmarkGoHeapAllocFree(b *testing.B) {
	var sink []byte
	for i := 0; i < b.N; i++ {
		sink = make([]byte, 128)
		sink[0] = byte(i)
	}
	runtime.KeepAlive(sink)
}

// BenchmarkNativeAllocFree measures the allocator as an ordinary Go
// library (no simulation): the real cost of the sharded fast path on the
// host machine.
func BenchmarkNativeAllocFree(b *testing.B) {
	s, err := NewSystem(Config{Mode: Native, CPUs: 1, PhysPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	c := s.CPU(0)
	ck, err := s.GetCookie(128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := s.AllocCookie(c, ck)
		if err != nil {
			b.Fatal(err)
		}
		s.FreeCookie(c, blk, ck)
	}
}
