// Package blocklist implements the singly-linked freelists the allocators
// thread through free blocks themselves.
//
// A free block's first 8 bytes hold the arena address of the next free
// block (NilAddr terminates the list), exactly as in the kernel the paper
// describes. A List is only a (head, count) pair, so moving an entire list
// — the "target-sized groups" the per-CPU and global layers exchange — is
// a constant-time structure copy with no per-block linked-list operations,
// which is the point of the paper's split-freelist design.
//
// A List may also be a run: n blocks at a fixed stride from head whose
// link words are not written yet — blocks cut from a fresh page, which a
// refill hands out without touching them. A run pops by address; Link
// writes its links once one CPU owns it, and nothing may be pushed or
// spliced onto a run before that.
package blocklist

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// List is an intrusive singly-linked list of free blocks, or a run of
// blocks not linked yet. The zero value is an empty list. It stays 16
// bytes: lists are copied by value through every layer.
type List struct {
	head arena.Addr
	n    int32
	// stride is 0 for a linked list. A run's block i lies at
	// head + i*stride (stride is ± the block size).
	stride int32
}

// Run wraps n unlinked blocks at head, head+stride, head+2*stride, ...
// as a List, touching no block.
func Run(head arena.Addr, n, stride int) List {
	if head == arena.NilAddr || n <= 0 || stride == 0 {
		panic(fmt.Sprintf("blocklist: Run(%#x, %d, %d)", head, n, stride))
	}
	return List{head: head, n: int32(n), stride: int32(stride)}
}

// Empty reports whether the list has no blocks.
func (l *List) Empty() bool { return l.n == 0 }

// Len returns the number of blocks on the list.
func (l *List) Len() int { return int(l.n) }

// Head returns the address of the first block (NilAddr when empty).
func (l *List) Head() arena.Addr { return l.head }

// IsRun reports whether the list is a run whose links are not written.
func (l *List) IsRun() bool { return l.stride != 0 }

// Stride returns a run's stride, 0 for a linked list.
func (l *List) Stride() int { return int(l.stride) }

// Reset empties the list without touching the blocks.
func (l *List) Reset() { *l = List{} }

// Push prepends block b. It writes the link word inside the block and
// charges the store to c. Push panics on a run: Link it first.
func (l *List) Push(c *machine.CPU, a *arena.Arena, b arena.Addr) {
	if b == arena.NilAddr {
		panic("blocklist: push of nil block")
	}
	if l.stride != 0 {
		panic("blocklist: push onto an unlinked run")
	}
	a.Store64(b, l.head)
	c.WriteAddr(b)
	l.head = b
	l.n++
}

// Pop removes and returns the first block. On a linked list it reads the
// link word inside the block and charges the load to c; a run's next
// block is an address computation that touches nothing. Pop panics on an
// empty list; the caller checks Empty first, as the real fast path does.
func (l *List) Pop(c *machine.CPU, a *arena.Arena) arena.Addr {
	if l.n == 0 {
		panic("blocklist: pop from empty list")
	}
	b := l.head
	l.n--
	if l.stride != 0 {
		l.head += arena.Addr(int64(l.stride))
		if l.n == 0 {
			l.Reset()
		}
		return b
	}
	l.head = a.Load64(b)
	c.ReadAddr(b)
	if l.n == 0 && l.head != arena.NilAddr {
		l.badCount()
	}
	return b
}

// badCount panics for a linked list whose count reached 0 before its
// links did. It is out of line so that Pop builds no message.
//
//go:noinline
func (l *List) badCount() {
	panic(fmt.Sprintf("blocklist: count reached 0 with non-nil head %#x", l.head))
}

// Link writes a run's links, making it the linked list of the same
// blocks in the same order: one store per block, charged to c as Push
// charges it, last block first so the head is the line touched last. A
// linked list is left alone.
func (l *List) Link(c *machine.CPU, a *arena.Arena) {
	if l.stride == 0 {
		return
	}
	next := arena.NilAddr
	for i := int64(l.n) - 1; i >= 0; i-- {
		b := l.head + arena.Addr(i*int64(l.stride))
		a.Store64(b, next)
		c.WriteAddr(b)
		next = b
	}
	l.stride = 0
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
func Chain(head arena.Addr, n int) List { return List{head: head, n: int32(n)} }

// SplitOnto removes exactly n blocks from the front of l and returns them,
// in chain order, followed by onto. Unlike Take, this must walk n links
// (charged to c, one read each) and write one: the segment's tail onto
// onto's head. SplitOnto(n, List{}) is the plain split the global layer's
// bucket pays when regrouping odd-sized lists into target-sized ones; a
// refill uses the general form to cut a page's freelist straight onto
// the list it is building. Splitting off all of l onto nothing is a free
// Take. Both lists must be linked.
func (l *List) SplitOnto(c *machine.CPU, a *arena.Arena, n int, onto List) List {
	if n <= 0 || n > l.Len() {
		panic(fmt.Sprintf("blocklist: SplitOnto(%d) from list of %d", n, l.n))
	}
	if l.stride != 0 || onto.stride != 0 {
		panic("blocklist: SplitOnto on an unlinked run")
	}
	if n == l.Len() && onto.Empty() {
		return l.Take()
	}
	tail := l.head
	for i := 0; i < n-1; i++ {
		tail = a.Load64(tail)
		c.ReadAddr(tail)
	}
	out := List{head: l.head, n: int32(n) + onto.n}
	l.head = a.Load64(tail)
	c.ReadAddr(tail)
	l.n -= int32(n)
	a.Store64(tail, onto.head)
	c.WriteAddr(tail)
	return out
}

// Append moves every block of other onto l by walking other and pushing
// each block. It is used only on infrequent paths (bucket regrouping,
// cache drains); the per-block cost is charged to c. other may be a run;
// l may not.
func (l *List) Append(c *machine.CPU, a *arena.Arena, other List) {
	for !other.Empty() {
		l.Push(c, a, other.Pop(c, a))
	}
}

// Walk calls f on each block in list order until f returns false,
// charging nothing: a run's blocks by address, a linked list's by its
// links, up to the NilAddr that ends it whatever its declared length —
// so a checker that counts can catch a list longer than it says.
func (l *List) Walk(a *arena.Arena, f func(b arena.Addr) bool) {
	if l.stride != 0 {
		b := l.head
		for i := int32(0); i < l.n && f(b); i++ {
			b += arena.Addr(int64(l.stride))
		}
		return
	}
	for b := l.head; b != arena.NilAddr && f(b); b = a.Load64(b) {
	}
}

// Validate walks the list and panics if the link count disagrees with n,
// a link escapes the arena, or a run reaches outside it. Tests and debug
// checks use it; it charges nothing.
func (l *List) Validate(a *arena.Arena) {
	if l.stride != 0 {
		last := int64(l.head) + int64(l.n-1)*int64(l.stride)
		if l.n <= 0 || l.head == arena.NilAddr || last <= 0 || uint64(last) >= a.Size() {
			panic(fmt.Sprintf("blocklist: run of %d from %#x by %d leaves the arena", l.n, l.head, l.stride))
		}
		return
	}
	count := 0
	l.Walk(a, func(arena.Addr) bool {
		count++
		if count > l.Len() {
			panic(fmt.Sprintf("blocklist: list longer than declared length %d", l.n))
		}
		return true
	})
	if count != l.Len() {
		panic(fmt.Sprintf("blocklist: declared length %d but walked %d", l.n, count))
	}
}
