// Package blocklist implements the singly-linked freelists the allocators
// thread through free blocks themselves.
//
// A free block's first 8 bytes hold the arena address of the next free
// block (NilAddr terminates the list), exactly as in the kernel the paper
// describes. A List is only a (head, count) pair, so moving an entire list
// — the "target-sized groups" the per-CPU and global layers exchange — is
// a constant-time structure copy with no per-block linked-list operations,
// which is the point of the paper's split-freelist design.
package blocklist

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// List is an intrusive singly-linked list of free blocks. The zero value
// is an empty list.
type List struct {
	head arena.Addr
	n    int
}

// Empty reports whether the list has no blocks.
func (l *List) Empty() bool { return l.n == 0 }

// Len returns the number of blocks on the list.
func (l *List) Len() int { return l.n }

// Head returns the address of the first block (NilAddr when empty).
func (l *List) Head() arena.Addr { return l.head }

// Reset empties the list without touching the blocks.
func (l *List) Reset() { l.head, l.n = arena.NilAddr, 0 }

// Push prepends block b. It writes the link word inside the block and
// charges the store to c.
func (l *List) Push(c *machine.CPU, a *arena.Arena, b arena.Addr) {
	if b == arena.NilAddr {
		panic("blocklist: push of nil block")
	}
	a.Store64(b, l.head)
	c.WriteAddr(b)
	l.head = b
	l.n++
}

// Pop removes and returns the first block. It reads the link word inside
// the block and charges the load to c. Pop panics on an empty list; the
// caller checks Empty first, as the real fast path does.
func (l *List) Pop(c *machine.CPU, a *arena.Arena) arena.Addr {
	if l.n == 0 {
		panic("blocklist: pop from empty list")
	}
	b := l.head
	l.head = a.Load64(b)
	c.ReadAddr(b)
	l.n--
	if l.n == 0 && l.head != arena.NilAddr {
		panic(fmt.Sprintf("blocklist: count reached 0 with non-nil head %#x", l.head))
	}
	return b
}

// Take removes all blocks from l and returns them as a new list — the
// constant-time whole-list move used when main is exchanged with aux or a
// target-sized group is handed to the global layer.
func (l *List) Take() List {
	out := *l
	l.Reset()
	return out
}

// Chain wraps an existing chain of n blocks starting at head — a page's
// own freelist, say — as a List, touching no block.
func Chain(head arena.Addr, n int) List { return List{head: head, n: n} }

// SplitOnto removes exactly n blocks from the front of l and returns them,
// in chain order, followed by onto. Unlike Take, this must walk n links
// (charged to c, one read each) and write one: the segment's tail onto
// onto's head. SplitOnto(n, List{}) is the plain split the global layer's
// bucket pays when regrouping odd-sized lists into target-sized ones; a
// refill uses the general form to cut a page's freelist straight onto
// the list it is building. Splitting off all of l onto nothing is a free
// Take.
func (l *List) SplitOnto(c *machine.CPU, a *arena.Arena, n int, onto List) List {
	if n <= 0 || n > l.n {
		panic(fmt.Sprintf("blocklist: SplitOnto(%d) from list of %d", n, l.n))
	}
	if n == l.n && onto.Empty() {
		return l.Take()
	}
	tail := l.head
	for i := 0; i < n-1; i++ {
		tail = a.Load64(tail)
		c.ReadAddr(tail)
	}
	out := List{head: l.head, n: n + onto.n}
	l.head = a.Load64(tail)
	c.ReadAddr(tail)
	l.n -= n
	a.Store64(tail, onto.head)
	c.WriteAddr(tail)
	return out
}

// Append moves every block of other onto l by walking other and pushing
// each block. It is used only on infrequent paths (bucket regrouping,
// cache drains); the per-block cost is charged to c.
func (l *List) Append(c *machine.CPU, a *arena.Arena, other List) {
	for !other.Empty() {
		l.Push(c, a, other.Pop(c, a))
	}
}

// Validate walks the list and panics if the link count disagrees with n
// or a link escapes the arena. Tests and debug checks use it; it charges
// nothing.
func (l *List) Validate(a *arena.Arena) {
	count := 0
	for b := l.head; b != arena.NilAddr; b = a.Load64(b) {
		count++
		if count > l.n {
			panic(fmt.Sprintf("blocklist: list longer than declared length %d", l.n))
		}
	}
	if count != l.n {
		panic(fmt.Sprintf("blocklist: declared length %d but walked %d", l.n, count))
	}
}
