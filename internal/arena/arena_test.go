package arena

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	a := New(4096)
	a.Store64(8, 0xdeadbeefcafef00d)
	if got := a.Load64(8); got != 0xdeadbeefcafef00d {
		t.Fatalf("Load64 = %#x", got)
	}
	a.Store32(16, 0x12345678)
	if got := a.Load32(16); got != 0x12345678 {
		t.Fatalf("Load32 = %#x", got)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	a := New(64)
	a.Store64(8, 0x0102030405060708)
	b := a.Bytes(8, 8)
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, b[i], want[i])
		}
	}
}

func TestQuickRoundTrip64(t *testing.T) {
	a := New(1 << 16)
	f := func(off uint16, v uint64) bool {
		addr := Addr(off)%((1<<16)-16) + 8 // [8, 1<<16-8]: the word fits
		a.Store64(addr, v)
		return a.Load64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTrip32(t *testing.T) {
	a := New(1 << 16)
	f := func(off uint16, v uint32) bool {
		addr := Addr(off)%((1<<16)-8) + 4
		a.Store32(addr, v)
		return a.Load32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSize(t *testing.T) {
	a := New(1 << 20)
	if a.Size() != 1<<20 {
		t.Fatalf("Size = %d", a.Size())
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

func TestBoundsChecks(t *testing.T) {
	a := New(4096)
	mustPanic(t, "nil load", func() { a.Load64(0) })
	mustPanic(t, "oob load", func() { a.Load64(4095) })
	mustPanic(t, "oob store", func() { a.Store64(4090, 1) })
	mustPanic(t, "wrap", func() { a.Bytes(^uint64(0)-4, 16) })
	mustPanic(t, "bad size", func() { New(7) })
	mustPanic(t, "tiny", func() { New(8) })
}

func TestFillCheckFill(t *testing.T) {
	a := New(4096)
	a.Fill(64, 128, 0xab)
	if off, ok := a.CheckFill(64, 128, 0xab); !ok {
		t.Fatalf("CheckFill failed at %d", off)
	}
	a.Bytes(64, 128)[77] = 0
	off, ok := a.CheckFill(64, 128, 0xab)
	if ok || off != 77 {
		t.Fatalf("CheckFill = (%d, %v), want (77, false)", off, ok)
	}
}

// TestFillCheckFillTable holds the word-wise Fill and CheckFill to what
// the byte loops they replaced did: every length 0-70 at every start
// alignment, the bytes around the range untouched, and a mismatch planted
// at each offset in turn found at exactly that offset.
func TestFillCheckFillTable(t *testing.T) {
	const guard, pattern = 0x11, 0xdc
	a := New(4096)
	for align := uint64(0); align < 16; align++ {
		for n := uint64(0); n <= 70; n++ {
			addr := 256 + align
			all := a.Bytes(addr-16, n+32)
			for i := range all {
				all[i] = guard
			}
			a.Fill(addr, n, pattern)
			for i, got := range all {
				want := byte(guard)
				if uint64(i) >= 16 && uint64(i) < 16+n {
					want = pattern
				}
				if got != want {
					t.Fatalf("Fill(align %d, n %d): byte %d is %#x, want %#x", align, n, i-16, got, want)
				}
			}
			if off, ok := a.CheckFill(addr, n, pattern); !ok || off != 0 {
				t.Fatalf("CheckFill(align %d, n %d) of a filled range = (%d, %v)", align, n, off, ok)
			}
			b := a.Bytes(addr, n)
			for bad := uint64(0); bad < n; bad++ {
				b[bad] = pattern ^ 1
				if bad+1 < n {
					b[n-1] = pattern ^ 2 // a later mismatch must not be the one reported
				}
				if off, ok := a.CheckFill(addr, n, pattern); ok || off != bad {
					t.Fatalf("CheckFill(align %d, n %d), mismatch at %d = (%d, %v)", align, n, bad, off, ok)
				}
				b[bad], b[n-1] = pattern, pattern
			}
		}
	}
}

func TestBytesAliasesArena(t *testing.T) {
	a := New(4096)
	b := a.Bytes(100, 8)
	b[0] = 0x5a
	if got := a.Bytes(100, 1)[0]; got != 0x5a {
		t.Fatalf("Bytes view not aliased: %#x", got)
	}
}

// fillDoubling is Fill as it was before the one-pass rewrite: seed one
// byte, then copy the filled prefix over the next stretch until done.
func fillDoubling(b []byte, pattern byte) {
	if len(b) == 0 {
		return
	}
	b[0] = pattern
	for filled := 1; filled < len(b); filled *= 2 {
		copy(b[filled:], b[:filled])
	}
}

// TestFillMatchesReference holds the one-pass Fill to the doubling copy
// it replaced: every pattern, every length around the word loop's edges
// and around a page, at unaligned starts, guard bytes on both sides
// included in the comparison.
func TestFillMatchesReference(t *testing.T) {
	lengths := []uint64{4095, 4096, 4097, 16 << 10}
	for n := uint64(0); n <= 130; n++ {
		lengths = append(lengths, n)
	}
	const guard = 16
	a := New(64 << 10)
	want := make([]byte, 16<<10+2*guard)
	for p := 0; p < 256; p++ {
		pattern := byte(p)
		for i, n := range lengths {
			addr := uint64(4096 + 1 + (p+i)%13) // walks every alignment
			all := a.Bytes(addr-guard, n+2*guard)
			w := want[:len(all)]
			for j := range all {
				all[j], w[j] = ^pattern, ^pattern
			}
			fillDoubling(w[guard:guard+n], pattern)
			a.Fill(addr, n, pattern)
			if !bytes.Equal(all, w) {
				t.Fatalf("Fill(%#x, %d, %#x) differs from the doubling copy", addr, n, pattern)
			}
		}
	}
}

func BenchmarkFill(b *testing.B) {
	a := New(64 << 10)
	for _, n := range []uint64{128, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				a.Fill(4096+8, n, byte(i)|1) // non-zero: the word-store path
			}
		})
	}
}
