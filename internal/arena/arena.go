// Package arena provides the flat byte arena that stands in for kernel
// virtual address space.
//
// Every block the allocator hands out is a range of bytes inside a single
// Arena, identified by its offset (an Addr). Freelist links are threaded
// through the blocks themselves, exactly as in the DYNIX kernel the paper
// describes: the first 8 bytes of a free block hold the address of the next
// free block. Keeping the links inside the managed memory means that
// overlap, corruption and use-after-free bugs show up as broken freelists
// in tests rather than hiding behind Go's garbage collector.
//
// Addr 0 is reserved as the nil address (NilAddr); the arena never hands
// out byte 0, so a zero link always terminates a list.
package arena

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Addr is an offset into an Arena, playing the role of a kernel virtual
// address. The zero value is NilAddr and never addresses usable memory.
type Addr = uint64

// NilAddr is the null pointer of the arena address space.
const NilAddr Addr = 0

// Arena is a contiguous span of simulated kernel virtual address space.
// It performs no allocation policy of its own; allocators carve it up.
//
// Concurrent access to disjoint ranges is safe (the backing store is a
// plain byte slice). Callers are responsible for ownership of ranges, just
// as kernel code is responsible for the memory it has allocated.
//
// On Linux the bytes are demand-zero memory outside the Go heap, resident
// only where touched, and reused once the Arena is unreachable
// (host_mmap.go); race builds and other systems use a heap slice
// (host_heap.go).
type Arena struct {
	mem []byte
}

// New returns an Arena of the given size in bytes. Size must be a
// multiple of 8 and at least 16; New panics otherwise, since a misshapen
// arena indicates a configuration bug rather than a runtime condition.
func New(size uint64) *Arena {
	if size < 16 || size%8 != 0 {
		panic(fmt.Sprintf("arena: invalid size %d", size))
	}
	return newArena(size)
}

// Size returns the total size of the arena in bytes.
func (a *Arena) Size() uint64 { return uint64(len(a.mem)) }

// check panics if [addr, addr+n) is not a valid, non-nil range.
func (a *Arena) check(addr Addr, n uint64) {
	if addr == NilAddr || addr+n > uint64(len(a.mem)) || addr+n < addr {
		a.outside(addr, n)
	}
}

// outside panics for the access [addr,+n) that a bounds check refused.
// It stays out of line so that the word accessors inline.
//
//go:noinline
func (a *Arena) outside(addr Addr, n uint64) {
	panic(fmt.Sprintf("arena: access [%#x,+%d) outside arena of size %d", addr, n, len(a.mem)))
}

// Load64 reads the 8-byte little-endian word at addr. It is how freelist
// links stored inside blocks are followed. The bounds check is check's
// in one compare: addr-1 wraps for NilAddr, and an arena holds at least
// 16 bytes.
func (a *Arena) Load64(addr Addr) uint64 {
	if addr-1 >= uint64(len(a.mem))-8 {
		a.outside(addr, 8)
	}
	return binary.LittleEndian.Uint64(a.mem[addr:])
}

// Store64 writes the 8-byte little-endian word v at addr, bounds-checked
// as Load64 is.
func (a *Arena) Store64(addr Addr, v uint64) {
	if addr-1 >= uint64(len(a.mem))-8 {
		a.outside(addr, 8)
	}
	binary.LittleEndian.PutUint64(a.mem[addr:], v)
}

// Load32 reads the 4-byte little-endian word at addr.
func (a *Arena) Load32(addr Addr) uint32 {
	a.check(addr, 4)
	b := a.mem[addr : addr+4 : addr+4]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Store32 writes the 4-byte little-endian word v at addr.
func (a *Arena) Store32(addr Addr, v uint32) {
	a.check(addr, 4)
	b := a.mem[addr : addr+4 : addr+4]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// Bytes returns the n bytes starting at addr as a mutable slice view of
// the arena. The caller must own [addr, addr+n). A view lives as long as
// its arena: once the Arena is unreachable its memory may back another.
func (a *Arena) Bytes(addr Addr, n uint64) []byte {
	a.check(addr, n)
	return a.mem[addr : addr+n : addr+n]
}

// Fill sets every byte of [addr, addr+n) to pattern. Allocators use it to
// poison freed memory in debug configurations and tests use it to verify
// write integrity of allocated blocks.
func (a *Arena) Fill(addr Addr, n uint64, pattern byte) {
	b := a.Bytes(addr, n)
	if pattern == 0 {
		clear(b)
		return
	}
	// One pass of word stores, four to a step, then the odd tail. No
	// shared pattern table: Native goroutines fill disjoint ranges
	// concurrently.
	w := uint64(pattern) * 0x0101010101010101
	for ; len(b) >= 32; b = b[32:] {
		binary.LittleEndian.PutUint64(b, w)
		binary.LittleEndian.PutUint64(b[8:], w)
		binary.LittleEndian.PutUint64(b[16:], w)
		binary.LittleEndian.PutUint64(b[24:], w)
	}
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, w)
	}
	for i := range b {
		b[i] = pattern
	}
}

// CheckFill reports whether every byte of [addr, addr+n) equals pattern,
// returning the offset of the first mismatch (relative to addr) and false
// if not.
func (a *Arena) CheckFill(addr Addr, n uint64, pattern byte) (uint64, bool) {
	b := a.Bytes(addr, n)
	// A run is one repeated byte exactly when its first byte is that byte
	// and it equals itself shifted by one — a word-wise compare. The byte
	// loop only runs to locate a mismatch.
	if len(b) == 0 || (b[0] == pattern && bytes.Equal(b[1:], b[:len(b)-1])) {
		return 0, true
	}
	i := 0
	for b[i] == pattern {
		i++
	}
	return uint64(i), false
}
