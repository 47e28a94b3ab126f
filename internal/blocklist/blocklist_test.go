package blocklist

import (
	"testing"
	"testing/quick"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

func testCPU(t *testing.T) (*machine.CPU, *arena.Arena) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.MemBytes = 1 << 20
	cfg.PhysPages = 16
	m := machine.New(cfg)
	return m.CPU(0), m.Mem()
}

// blocks returns n block addresses spaced size bytes apart from base.
func blocks(base arena.Addr, n int, size uint64) []arena.Addr {
	out := make([]arena.Addr, n)
	for i := range out {
		out[i] = base + arena.Addr(i)*arena.Addr(size)
	}
	return out
}

func TestPushPopLIFO(t *testing.T) {
	c, a := testCPU(t)
	var l List
	bs := blocks(64, 5, 32)
	for _, b := range bs {
		l.Push(c, a, b)
	}
	if l.Len() != 5 {
		t.Fatalf("len = %d", l.Len())
	}
	l.Validate(a)
	for i := 4; i >= 0; i-- {
		if got := l.Pop(c, a); got != bs[i] {
			t.Fatalf("pop %d = %#x, want %#x", i, got, bs[i])
		}
	}
	if !l.Empty() {
		t.Fatal("not empty")
	}
}

func TestTakeIsConstantTimeMove(t *testing.T) {
	c, a := testCPU(t)
	var l List
	for _, b := range blocks(64, 3, 32) {
		l.Push(c, a, b)
	}
	m := l.Take()
	if !l.Empty() || m.Len() != 3 {
		t.Fatalf("take: src %d dst %d", l.Len(), m.Len())
	}
	m.Validate(a)
}

// TestSplitOff: SplitOnto onto nothing is the plain split.
func TestSplitOff(t *testing.T) {
	c, a := testCPU(t)
	var l List
	bs := blocks(64, 10, 32)
	for _, b := range bs {
		l.Push(c, a, b)
	}
	front := l.SplitOnto(c, a, 4, List{})
	if front.Len() != 4 || l.Len() != 6 {
		t.Fatalf("split: front %d rest %d", front.Len(), l.Len())
	}
	front.Validate(a)
	l.Validate(a)
	// Front must hold the four most recently pushed blocks.
	for i := 9; i >= 6; i-- {
		if got := front.Pop(c, a); got != bs[i] {
			t.Fatalf("front pop = %#x, want %#x", got, bs[i])
		}
	}
}

func TestSplitOffAll(t *testing.T) {
	c, a := testCPU(t)
	var l List
	for _, b := range blocks(64, 3, 32) {
		l.Push(c, a, b)
	}
	out := l.SplitOnto(c, a, 3, List{})
	if out.Len() != 3 || !l.Empty() {
		t.Fatal("SplitOnto(all, nothing) wrong")
	}
	out.Validate(a)
}

// TestSplitOnto: the cut segment comes out in chain order with onto
// behind it, and linking it there costs exactly what the plain split
// costs — the same n reads and one write, only the written value differs.
func TestSplitOnto(t *testing.T) {
	cycles := func(withOnto bool) int64 {
		c, a := testCPU(t)
		var l, onto List
		bs := blocks(64, 10, 32)
		for i := len(bs) - 1; i >= 0; i-- {
			l.Push(c, a, bs[i])
		}
		for _, b := range blocks(1024, 3, 32) {
			onto.Push(c, a, b)
		}
		if !withOnto {
			onto = List{}
		}
		t0 := c.Now()
		front := l.SplitOnto(c, a, 4, onto)
		spent := c.Now() - t0
		if front.Len() != 4+onto.Len() || l.Len() != 6 {
			t.Fatalf("split onto %d: front %d rest %d", onto.Len(), front.Len(), l.Len())
		}
		front.Validate(a)
		l.Validate(a)
		for i := 0; i < 4; i++ {
			if got := front.Pop(c, a); got != bs[i] {
				t.Fatalf("front pop %d = %#x, want %#x", i, got, bs[i])
			}
		}
		if front.Head() != onto.Head() || l.Head() != bs[4] {
			t.Fatalf("segment not followed by onto, or rest not at bs[4]")
		}
		return spent
	}
	if with, without := cycles(true), cycles(false); with != without {
		t.Errorf("SplitOnto cost %d cycles with a list behind it, %d without", with, without)
	}

	// All of l onto a non-empty list still walks to the tail to link it.
	c, a := testCPU(t)
	var l, onto List
	for _, b := range blocks(64, 3, 32) {
		l.Push(c, a, b)
	}
	onto.Push(c, a, 1024)
	out := l.SplitOnto(c, a, 3, onto)
	if out.Len() != 4 || !l.Empty() {
		t.Fatalf("SplitOnto(all, 1) gave %d, left %d", out.Len(), l.Len())
	}
	out.Validate(a)
}

func TestAppend(t *testing.T) {
	c, a := testCPU(t)
	var l, m List
	for _, b := range blocks(64, 3, 32) {
		l.Push(c, a, b)
	}
	for _, b := range blocks(1024, 4, 32) {
		m.Push(c, a, b)
	}
	l.Append(c, a, m)
	if l.Len() != 7 {
		t.Fatalf("len = %d", l.Len())
	}
	l.Validate(a)
}

func TestPanics(t *testing.T) {
	c, a := testCPU(t)
	var l List
	for name, f := range map[string]func(){
		"pop empty":     func() { (&List{}).Pop(c, a) },
		"push nil":      func() { l.Push(c, a, arena.NilAddr) },
		"split zero":    func() { (&List{}).SplitOnto(c, a, 0, List{}) },
		"split toolong": func() { l2 := List{}; l2.Push(c, a, 64); l2.SplitOnto(c, a, 5, List{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestQuickPushPopSequences property-tests that any interleaving of
// pushes and pops behaves like a stack of addresses.
func TestQuickPushPopSequences(t *testing.T) {
	c, a := testCPU(t)
	f := func(ops []bool) bool {
		var l List
		var ref []arena.Addr
		next := arena.Addr(64)
		for _, push := range ops {
			if push || len(ref) == 0 {
				l.Push(c, a, next)
				ref = append(ref, next)
				next += 32
			} else {
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if l.Pop(c, a) != want {
					return false
				}
			}
			if l.Len() != len(ref) {
				return false
			}
		}
		l.Validate(a)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSplitOffPreservesBlocks property-tests that a split never
// loses or duplicates a block.
func TestQuickSplitOffPreservesBlocks(t *testing.T) {
	c, a := testCPU(t)
	f := func(n uint8, k uint8) bool {
		total := int(n%40) + 1
		cut := int(k)%total + 1
		var l List
		want := map[arena.Addr]bool{}
		for i := 0; i < total; i++ {
			b := arena.Addr(64 + i*32)
			l.Push(c, a, b)
			want[b] = true
		}
		front := l.SplitOnto(c, a, cut, List{})
		got := map[arena.Addr]bool{}
		for !front.Empty() {
			got[front.Pop(c, a)] = true
		}
		for !l.Empty() {
			got[l.Pop(c, a)] = true
		}
		if len(got) != total {
			return false
		}
		for b := range want {
			if !got[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
