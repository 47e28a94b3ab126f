package core

import (
	"testing"
	"testing/quick"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// TestQuickRandomOpSequences property-tests the whole allocator: any
// sequence of allocations and frees (random sizes, random free order,
// random CPUs) must leave every invariant intact and never hand out
// overlapping blocks.
func TestQuickRandomOpSequences(t *testing.T) {
	type op struct {
		Alloc bool
		Size  uint16
		CPU   uint8
		Which uint8
	}
	f := func(ops []op) bool {
		cfg := machine.DefaultConfig()
		cfg.NumCPUs = 3
		cfg.MemBytes = 16 << 20
		cfg.PhysPages = 512
		m := machine.New(cfg)
		a, err := New(m, Params{Poison: true})
		if err != nil {
			t.Fatal(err)
		}
		type held struct {
			addr arena.Addr
			size uint64
		}
		var live []held
		for _, o := range ops {
			c := m.CPU(int(o.CPU) % 3)
			if o.Alloc || len(live) == 0 {
				size := uint64(o.Size)%6000 + 1
				b, err := a.Alloc(c, size)
				if err != nil {
					continue // low memory is legal; invariants still checked below
				}
				live = append(live, held{b, size})
			} else {
				i := int(o.Which) % len(live)
				a.Free(c, live[i].addr, live[i].size)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for _, h := range live {
			a.Free(m.CPU(0), h.addr, h.size)
		}
		a.DrainAll(m.CPU(0))
		if err := a.CheckConsistency(); err != nil {
			t.Log(err)
			return false
		}
		// Everything freed and drained: only vmblk headers stay mapped.
		st := a.Stats(m.CPU(0))
		return st.Phys.Mapped == int64(8*st.VM.VmblkCreates)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNoOverlap verifies allocations never overlap for arbitrary
// size mixes while live.
func TestQuickNoOverlap(t *testing.T) {
	f := func(sizes []uint16) bool {
		cfg := machine.DefaultConfig()
		cfg.MemBytes = 16 << 20
		cfg.PhysPages = 1024
		m := machine.New(cfg)
		a, err := New(m, Params{})
		if err != nil {
			t.Fatal(err)
		}
		c := m.CPU(0)
		type iv struct{ lo, hi arena.Addr }
		var ivs []iv
		for _, s := range sizes {
			size := uint64(s)%8192 + 1
			b, err := a.Alloc(c, size)
			if err != nil {
				continue
			}
			// The allocator must round up; the usable extent is the
			// requested size at minimum.
			ivs = append(ivs, iv{b, b + size})
		}
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
					t.Logf("overlap: [%#x,%#x) and [%#x,%#x)", ivs[i].lo, ivs[i].hi, ivs[j].lo, ivs[j].hi)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCyclicSizeShifts models the paper's cyclic commercial
// workload: phases that each allocate a different size distribution must
// always be satisfiable because coalescing returns the previous phase's
// memory.
func TestQuickCyclicSizeShifts(t *testing.T) {
	f := func(phaseSizes []uint16) bool {
		if len(phaseSizes) == 0 {
			return true
		}
		if len(phaseSizes) > 12 {
			phaseSizes = phaseSizes[:12]
		}
		cfg := machine.DefaultConfig()
		cfg.MemBytes = 16 << 20
		cfg.PhysPages = 300
		m := machine.New(cfg)
		a, err := New(m, Params{})
		if err != nil {
			t.Fatal(err)
		}
		c := m.CPU(0)
		for _, ps := range phaseSizes {
			size := uint64(ps)%4080 + 16
			var bs []arena.Addr
			// Fill most of memory with this size...
			for i := 0; i < 200; i++ {
				b, err := a.Alloc(c, size)
				if err != nil {
					break
				}
				bs = append(bs, b)
			}
			if len(bs) == 0 {
				t.Logf("phase size %d: nothing allocatable", size)
				return false
			}
			// ...then free it all; the next phase must find it again.
			for _, b := range bs {
				a.Free(c, b, size)
			}
		}
		a.DrainAll(c)
		return a.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
