package blocklist

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

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

// TestListIs16Bytes: a run packs its count and stride into the word a
// linked list's count used; lists are copied by value through every
// layer, and a 24-byte List measurably raised a sweep's host RSS.
func TestListIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(List{}); got != 16 {
		t.Errorf("List is %d bytes, want 16", got)
	}
}

// walk returns l's blocks in list order.
func walk(a *arena.Arena, l *List) []arena.Addr {
	var out []arena.Addr
	l.Walk(a, func(b arena.Addr) bool { out = append(out, b); return true })
	return out
}

// TestRunPopsByAddress: a run pops its blocks at its stride, up or down,
// reading and writing none of them, and empties into the zero List.
func TestRunPopsByAddress(t *testing.T) {
	for _, stride := range []int{32, -32} {
		c, a := testCPU(t)
		head := arena.Addr(1024)
		l := Run(head, 5, stride)
		if !l.IsRun() || l.Len() != 5 || l.Head() != head {
			t.Fatalf("stride %d: Run gave run=%v len %d head %#x", stride, l.IsRun(), l.Len(), l.Head())
		}
		l.Validate(a)
		st := c.Stats()
		for i := 0; i < 5; i++ {
			want := head + arena.Addr(i*stride)
			if got := l.Pop(c, a); got != want {
				t.Fatalf("stride %d: pop %d = %#x, want %#x", stride, i, got, want)
			}
		}
		if got := c.Stats(); got != st {
			t.Errorf("stride %d: popping a run charged %+v, want nothing", stride, got)
		}
		if l != (List{}) {
			t.Errorf("stride %d: emptied run is %+v, want the zero List", stride, l)
		}
	}
}

// TestRunTakeAndWalk: Take moves a run whole, still unlinked, and Walk
// reaches its blocks by address, stopping when asked.
func TestRunTakeAndWalk(t *testing.T) {
	_, a := testCPU(t)
	l := Run(2048, 4, -64)
	m := l.Take()
	if !l.Empty() || l.IsRun() || !m.IsRun() || m.Len() != 4 {
		t.Fatalf("take: src %+v dst %+v", l, m)
	}
	if got, want := walk(a, &m), []arena.Addr{2048, 1984, 1920, 1856}; !slices.Equal(got, want) {
		t.Errorf("walk = %#x, want %#x", got, want)
	}
	n := 0
	m.Walk(a, func(arena.Addr) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("walk went on %d blocks after being told to stop at 2", n)
	}
}

// TestRunLinks: Link writes one link per block, as Push would charge
// them, and leaves the linked list of the same blocks in the same order;
// linking a linked list writes nothing.
func TestRunLinks(t *testing.T) {
	for _, stride := range []int{32, -32} {
		c, a := testCPU(t)
		l := Run(4096, 6, stride)
		want := walk(a, &l)
		w0 := c.Stats()
		l.Link(c, a)
		w1 := c.Stats()
		if l.IsRun() || l.Len() != 6 || l.Head() != want[0] {
			t.Fatalf("stride %d: linked list is %+v", stride, l)
		}
		l.Validate(a)
		if got := walk(a, &l); !slices.Equal(got, want) {
			t.Errorf("stride %d: linked order %#x, run order %#x", stride, got, want)
		}
		var p List
		for i := len(want) - 1; i >= 0; i-- {
			p.Push(c, a, want[i]+8192)
		}
		w2 := c.Stats()
		if w1.Instructions-w0.Instructions != w2.Instructions-w1.Instructions {
			t.Errorf("stride %d: Link charged %d instructions, six pushes %d",
				stride, w1.Instructions-w0.Instructions, w2.Instructions-w1.Instructions)
		}
		l.Link(c, a)
		if c.Stats() != w2 {
			t.Errorf("stride %d: linking a linked list charged something", stride)
		}
		for i := range want {
			if got := l.Pop(c, a); got != want[i] {
				t.Fatalf("stride %d: pop %d = %#x, want %#x", stride, i, got, want[i])
			}
		}
	}
}

// TestRunValidate: a run that reaches outside the arena fails Validate.
func TestRunValidate(t *testing.T) {
	_, a := testCPU(t)
	for name, l := range map[string]List{
		"below": Run(64, 4, -32),
		"above": Run(arena.Addr(a.Size())-64, 4, 32),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Validate of %+v did not panic", name, l)
				}
			}()
			l.Validate(a)
		}()
	}
	for _, l := range []List{Run(128, 3, -32), Run(arena.Addr(a.Size())-96, 3, 32)} {
		l.Validate(a)
	}
}

// TestRunRefusesSplicing: nothing is pushed or spliced onto a run, or
// cut from one, before it is linked — its link words are not written.
func TestRunRefusesSplicing(t *testing.T) {
	c, a := testCPU(t)
	linked := func() List { var l List; l.Push(c, a, 8192); l.Push(c, a, 8224); return l }
	for name, f := range map[string]func(){
		"push onto run":      func() { r := Run(64, 3, 32); r.Push(c, a, 4096) },
		"append onto run":    func() { r := Run(64, 3, 32); r.Append(c, a, linked()) },
		"split onto run":     func() { l := linked(); l.SplitOnto(c, a, 1, Run(64, 3, 32)) },
		"split from run":     func() { r := Run(64, 3, 32); r.SplitOnto(c, a, 1, List{}) },
		"run of nothing":     func() { Run(64, 0, 32) },
		"run without stride": func() { Run(64, 3, 0) },
		"run from nil":       func() { Run(arena.NilAddr, 3, 32) },
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
	// A run may be the list appended: Append pops it by address.
	l := linked()
	l.Append(c, a, Run(64, 3, 32))
	if got, want := walk(a, &l), []arena.Addr{128, 96, 64, 8224, 8192}; !slices.Equal(got, want) {
		t.Errorf("append of a run gave %#x, want %#x", got, want)
	}
}

// FuzzListOps drives two lists through random pushes, pops, takes,
// splits, appends, runs and links, checking each against a slice of
// addresses after every step.
func FuzzListOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 8, 2, 4, 3, 5, 6, 7})
	f.Add([]byte{4, 12, 5, 1, 0, 9, 6, 2, 3, 0, 0, 0, 1, 1})
	f.Add([]byte{4, 3, 6, 4, 1, 9, 13, 2, 7, 3})
	cfg := machine.DefaultConfig()
	cfg.MemBytes = 1 << 20
	cfg.PhysPages = 16
	m := machine.New(cfg)
	c, a := m.CPU(0), m.Mem()
	const size = 32
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		var ls [2]List
		var refs [2][]arena.Addr
		next := arena.Addr(64) // blocks are never reused: a bump pointer
		fresh := func(n int) arena.Addr {
			b := next
			next += arena.Addr(n * size)
			return b
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, int(ops[i+1])
			k := arg & 1
			l, ref := &ls[k], &refs[k]
			o, oref := &ls[1-k], &refs[1-k]
			switch op {
			case 0: // push
				if l.IsRun() {
					l.Link(c, a)
				}
				b := fresh(1)
				l.Push(c, a, b)
				*ref = append([]arena.Addr{b}, *ref...)
			case 1: // pop
				if !l.Empty() {
					want := (*ref)[0]
					if got := l.Pop(c, a); got != want {
						t.Fatalf("op %d: pop %#x, want %#x", i/2, got, want)
					}
					*ref = (*ref)[1:]
				}
			case 2: // take l into the other list, when it is empty
				if o.Empty() {
					*o, *oref = l.Take(), *ref
					*ref = nil
				}
			case 3: // split a front segment of l onto the other list
				if n := 1 + arg>>1; n <= l.Len() && !l.IsRun() && !o.IsRun() {
					*o = l.SplitOnto(c, a, n, *o)
					*oref = append(slices.Clone((*ref)[:n]), *oref...)
					*ref = (*ref)[n:]
				}
			case 4: // replace an empty list by a fresh run, up or down
				if l.Empty() {
					n := 1 + (arg>>1)%16
					lo := fresh(n)
					head, stride := lo, size
					if arg&2 != 0 {
						head, stride = lo+arena.Addr((n-1)*size), -size
					}
					*l = Run(head, n, stride)
					*ref = nil
					for j := 0; j < n; j++ {
						*ref = append(*ref, head+arena.Addr(j*stride))
					}
				}
			case 5: // link
				l.Link(c, a)
			case 6: // append the other list onto l
				if !l.IsRun() {
					l.Append(c, a, o.Take())
					for _, b := range *oref {
						*ref = append([]arena.Addr{b}, *ref...)
					}
					*oref = nil
				}
			case 7: // pop down to nothing
				for !l.Empty() {
					l.Pop(c, a)
				}
				*ref = nil
			}
			for j := range ls {
				if ls[j].Len() != len(refs[j]) {
					t.Fatalf("op %d: list %d holds %d, reference %d", i/2, j, ls[j].Len(), len(refs[j]))
				}
				ls[j].Validate(a)
				if got := walk(a, &ls[j]); !slices.Equal(got, refs[j]) {
					t.Fatalf("op %d: list %d walks %#x, reference %#x", i/2, j, got, refs[j])
				}
			}
		}
	})
}
