package core

import (
	"kmem/internal/arena"
	"kmem/internal/machine"
)

// AllocZeroed is kmem_zalloc: an allocation whose payload is cleared
// before it is returned. The zeroing cost is charged per cache line
// written, so large zeroed requests are visibly dearer than plain ones —
// the paper's observation that "the overhead of initializing large blocks
// of memory typically overshadows the virtual-memory system's overhead".
func (a *Allocator) AllocZeroed(c *machine.CPU, size uint64) (arena.Addr, error) {
	b, err := a.Alloc(c, size)
	if err != nil {
		return arena.NilAddr, err
	}
	a.zero(c, b, size)
	return b, nil
}

// AllocCookieZeroed is the cookie-interface variant of AllocZeroed.
func (a *Allocator) AllocCookieZeroed(c *machine.CPU, ck Cookie) (arena.Addr, error) {
	b, err := a.AllocCookie(c, ck)
	if err != nil {
		return arena.NilAddr, err
	}
	a.zero(c, b, uint64(ck.size))
	return b, nil
}

// zero clears [b, b+size) and charges one store per cache line plus the
// loop instructions (a rep stos-style sequence).
func (a *Allocator) zero(c *machine.CPU, b arena.Addr, size uint64) {
	a.mem.Fill(b, size, 0)
	lineBytes := uint64(1) << machine.LineShift
	for off := uint64(0); off < size; off += lineBytes {
		c.WriteAddr(b + off)
		c.Work(3)
	}
}
