package machine

import (
	"fmt"
	"sync/atomic"
)

// Ownership checking. The paper's fast path is safe only because "CPUs
// are prohibited from accessing other CPUs' per-CPU caches": in this
// library that discipline is "one goroutine drives a CPU handle at a
// time". Violations in Native mode don't crash — the PerCPU claim word
// silently serializes them — so they hide real bugs in calling code.
// When checking is enabled, each CPU carries an exclusivity marker that
// panics on concurrent entry instead.

// exclusive is the marker; 0 = free, otherwise an opaque entrant token.
type exclusive struct {
	holder atomic.Int64
	tokens atomic.Int64
}

// BeginExclusive marks the CPU as driven by the caller and returns a
// token for EndExclusive. It panics if another goroutine is inside an
// exclusive section on the same CPU — the misuse the per-CPU design
// forbids.
func (c *CPU) BeginExclusive() int64 {
	tok := c.excl.tokens.Add(1)
	if !c.excl.holder.CompareAndSwap(0, tok) {
		panic(fmt.Sprintf(
			"machine: CPU %d entered concurrently by two goroutines; one goroutine must own a CPU handle at a time",
			c.id))
	}
	return tok
}

// EndExclusive releases the marker taken by BeginExclusive.
func (c *CPU) EndExclusive(tok int64) {
	if !c.excl.holder.CompareAndSwap(tok, 0) {
		panic(fmt.Sprintf("machine: CPU %d exclusive section corrupted", c.id))
	}
}
