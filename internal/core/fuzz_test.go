package core

import (
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// FuzzSizeToClass checks the size-to-class rounding invariants for every
// reachable request size: in-range sizes map to the smallest class that
// fits, out-of-range sizes are rejected, and the cookie translation
// agrees with the table.
func FuzzSizeToClass(f *testing.F) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 1
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 64
	m := machine.New(cfg)
	a, err := New(m, Params{})
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(16))
	f.Add(uint64(17))
	f.Add(uint64(a.maxSmall))
	f.Add(uint64(a.maxSmall) + 1)
	f.Add(^uint64(0))

	f.Fuzz(func(t *testing.T, size uint64) {
		ck, err := a.GetCookie(size)
		if size == 0 || size > uint64(a.maxSmall) {
			if err == nil {
				t.Fatalf("GetCookie(%d) accepted an out-of-range size", size)
			}
			return
		}
		if err != nil {
			t.Fatalf("GetCookie(%d): %v", size, err)
		}
		cls := a.classFor(size)
		if got := uint64(a.classes[cls].size); got < size {
			t.Fatalf("class %d size %d cannot hold request %d", cls, got, size)
		}
		if cls > 0 && uint64(a.classes[cls-1].size) >= size {
			t.Fatalf("size %d mapped to class %d but class %d already fits", size, cls, cls-1)
		}
		if uint64(ck.Size()) != uint64(a.classes[cls].size) {
			t.Fatalf("cookie size %d disagrees with class size %d", ck.Size(), a.classes[cls].size)
		}
	})
}

// FuzzAllocatorOps drives the whole allocator with a byte-coded operation
// sequence: every reachable state must preserve every invariant. Run with
// `go test -fuzz=FuzzAllocatorOps ./internal/core` to explore; plain
// `go test` replays the seed corpus.
func FuzzAllocatorOps(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x80, 0xff, 0x10})
	f.Add([]byte("alloc-free-alloc-free"))
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255, 128, 64, 32, 16})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		cfg := machine.DefaultConfig()
		cfg.NumCPUs = 2
		cfg.MemBytes = 16 << 20
		cfg.PhysPages = 256
		m := machine.New(cfg)
		a, err := New(m, Params{Poison: true})
		if err != nil {
			t.Fatal(err)
		}
		type held struct {
			b    arena.Addr
			size uint64
		}
		var live []held
		for i := 0; i+1 < len(ops); i += 2 {
			c := m.CPU(int(ops[i]) % 2)
			switch {
			case ops[i]&0x80 == 0 || len(live) == 0:
				// Size spans small classes and the large path.
				size := uint64(ops[i+1])*40 + 1
				b, err := a.Alloc(c, size)
				if err != nil {
					continue // low memory is a legal outcome
				}
				live = append(live, held{b, size})
			default:
				j := int(ops[i+1]) % len(live)
				a.Free(c, live[j].b, live[j].size)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for _, h := range live {
			a.Free(m.CPU(0), h.b, h.size)
		}
		a.DrainAll(m.CPU(0))
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		st := a.Stats(m.CPU(0))
		if st.Phys.Mapped != int64(8*st.VM.VmblkCreates) {
			t.Fatalf("leak: %d pages mapped with %d vmblks after full free",
				st.Phys.Mapped, st.VM.VmblkCreates)
		}
	})
}
