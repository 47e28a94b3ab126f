// Package allocif defines the common interface the paper's allocator and
// every baseline implement, so benchmarks and conformance tests can treat
// them uniformly.
package allocif

import (
	"kmem/internal/arena"
	"kmem/internal/machine"
)

// Allocator is the System V kmem_alloc/kmem_free shape shared by all
// implementations. The CPU handle identifies the executing processor;
// lock-based baselines ignore it except for cost accounting.
type Allocator interface {
	// Name identifies the allocator in benchmark output ("cookie",
	// "newkma", "mk", "oldkma", "lazybuddy").
	Name() string
	// Alloc returns a block of at least size bytes.
	Alloc(c *machine.CPU, size uint64) (arena.Addr, error)
	// Free returns a block allocated with the same size.
	Free(c *machine.CPU, addr arena.Addr, size uint64)
}

// Coalescer is implemented by allocators that can return fully free
// memory to the system (the paper's allocator; not MK).
type Coalescer interface {
	// DrainAll flushes every internal cache so free memory coalesces.
	DrainAll(c *machine.CPU)
}

// Waiter is implemented by allocators with a blocking, DYNIX
// KM_SLEEP-style allocation path: on exhaustion AllocWait retries after
// bounded waits instead of failing immediately, returning the typed
// exhaustion error only once its wait budget is spent.
type Waiter interface {
	AllocWait(c *machine.CPU, size uint64) (arena.Addr, error)
}

// Trimmer is implemented by allocators that can release the physical
// backing of coalesced free memory while keeping its virtual addresses
// reserved (the lazy virtual-span model). Trim strips the backing of up
// to maxPages free pages — negative strips all — and returns how many it
// released; an allocator whose free memory holds no backing returns 0.
type Trimmer interface {
	Trim(c *machine.CPU, maxPages int64) int64
}

// RetryWait is the KM_SLEEP polyfill for baseline allocators that have
// no native blocking path: AllocWait retries the plain Alloc with a
// charged idle backoff between rounds. In the simulator the idle periods
// advance virtual time (other simulated CPUs may free memory meanwhile);
// in native mode the retries are immediate and bounded. Embedding keeps
// the wrapped allocator's Name and interfaces.
type RetryWait struct{ Allocator }

// RetryWait's bounds: the retry rounds, and the first idle period, which
// doubles each round.
const (
	retryMaxWaits      = 8
	retryBackoffCycles = 4096
)

// AllocWait implements Waiter by polling Alloc.
func (w RetryWait) AllocWait(c *machine.CPU, size uint64) (arena.Addr, error) {
	backoff := int64(retryBackoffCycles)
	for attempt := 0; ; attempt++ {
		addr, err := w.Alloc(c, size)
		if err == nil || attempt >= retryMaxWaits {
			return addr, err
		}
		c.Idle(backoff)
		backoff *= 2
	}
}
