package core

import (
	"strings"
	"testing"
)

func TestAllocZeroed(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	// Dirty a block, free it, and demand a zeroed one: the returned
	// payload must be all zero regardless of history.
	b1, _ := a.Alloc(c, 64)
	m.Mem().Fill(b1, 64, 0xff)
	a.Free(c, b1, 64)

	for i := 0; i < 8; i++ {
		b, err := a.AllocZeroed(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		if off, ok := m.Mem().CheckFill(b, 64, 0); !ok {
			t.Fatalf("zeroed block dirty at +%d", off)
		}
		a.Free(c, b, 64)
	}
}

func TestAllocZeroedLarge(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	b, err := a.AllocZeroed(c, 3*4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Mem().CheckFill(b, 3*4096, 0); !ok {
		t.Fatal("large zeroed block dirty")
	}
	a.Free(c, b, 3*4096)
}

func TestAllocCookieZeroed(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	ck, _ := a.GetCookie(128)
	b, err := a.AllocCookieZeroed(c, ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Mem().CheckFill(b, 128, 0); !ok {
		t.Fatal("cookie-zeroed block dirty")
	}
	a.FreeCookie(c, b, ck)
}

func TestZeroingCostScalesWithSize(t *testing.T) {
	a, m := testAllocator(t, 1, 2048, Params{})
	c := m.CPU(0)
	measure := func(size uint64) int64 {
		// Warm the class first.
		b, err := a.Alloc(c, size)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(c, b, size)
		start := c.Now()
		b, err = a.AllocZeroed(c, size)
		if err != nil {
			t.Fatal(err)
		}
		cost := c.Now() - start
		a.Free(c, b, size)
		return cost
	}
	small := measure(64)
	big := measure(4096)
	if big < 4*small {
		t.Fatalf("zeroing 4096 (%d cycles) not much dearer than 64 (%d cycles)", big, small)
	}
}

func TestDumpShowsState(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	var held []uint64
	for i := 0; i < 100; i++ {
		b, _ := a.Alloc(c, 256)
		held = append(held, b)
	}
	bigBlock, _ := a.Alloc(c, 32768)

	var sb strings.Builder
	a.Dump(&sb)
	out := sb.String()
	for _, want := range []string{
		"kmem allocator:",
		"class 4: size 256",
		"global:",
		"blocks free",
		"vmblk layer: 1 vmblks",
		"alloc[8]", // the 32 KB large allocation
		"physical:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q\n%s", want, out)
		}
	}
	a.Free(c, bigBlock, 32768)
	for _, b := range held {
		a.Free(c, b, 256)
	}
}

func TestPoisonModeCatchesWrongCookieFree(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	ck64, _ := a.GetCookie(64)
	ck256, _ := a.GetCookie(256)
	b, err := a.AllocCookie(c, ck64)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-cookie free not detected")
		}
	}()
	a.FreeCookie(c, b, ck256) // wrong class: must panic in poison mode
}

func TestDumpOnFreshAllocator(t *testing.T) {
	a, _ := defaultTestAllocator(t)
	var sb strings.Builder
	a.Dump(&sb)
	if !strings.Contains(sb.String(), "0 vmblks") {
		t.Fatalf("fresh dump:\n%s", sb.String())
	}
}
