package kmem

import (
	"errors"
	"sync"
	"testing"
)

func newSys(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuickstartFlow(t *testing.T) {
	s := newSys(t, Config{CPUs: 2})
	c := s.CPU(0)

	b, err := s.Alloc(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	copy(s.Bytes(b, 5), "hello")
	if string(s.Bytes(b, 5)) != "hello" {
		t.Fatal("payload mismatch")
	}
	s.Free(c, b, 100)

	ck, err := s.GetCookie(64)
	if err != nil {
		t.Fatal(err)
	}
	b, err = s.AllocCookie(c, ck)
	if err != nil {
		t.Fatal(err)
	}
	s.FreeCookie(c, b, ck)

	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaults(t *testing.T) {
	s := newSys(t, Config{})
	if s.NumCPUs() != 1 {
		t.Fatalf("NumCPUs = %d", s.NumCPUs())
	}
	c := s.CPU(0)
	b, err := s.Alloc(c, 4096)
	if err != nil {
		t.Fatal(err)
	}
	s.FreeByAddr(c, b)
	st := s.Stats(c)
	if len(st.Classes) != 9 {
		t.Fatalf("%d default classes", len(st.Classes))
	}
}

func TestErrorsSurface(t *testing.T) {
	s := newSys(t, Config{PhysPages: 16})
	c := s.CPU(0)
	if _, err := s.Alloc(c, 0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("Alloc(0): %v", err)
	}
	var held []Addr
	for {
		b, err := s.Alloc(c, 4096)
		if err != nil {
			if !errors.Is(err, ErrNoMemory) {
				t.Fatalf("exhaustion error: %v", err)
			}
			break
		}
		held = append(held, b)
	}
	for _, b := range held {
		s.Free(c, b, 4096)
	}
	s.DrainAll(c)
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestHugeRequestRefused: a request no vmblk can hold — one 4 MB vmblk
// long, whose header pages leave less than that for data, or bigger than
// the whole arena — is ErrBadSize, never a truncated span or a search
// through fresh vmblks, with or without hardening.
func TestHugeRequestRefused(t *testing.T) {
	const mem = 16 << 20
	for _, cfg := range []Config{{MemBytes: mem}, {MemBytes: mem, Harden: &HardenConfig{}}} {
		s := newSys(t, cfg)
		c := s.CPU(0)
		for _, size := range []uint64{4 << 20, s.Machine().Config().PageBytes<<32 + 1, mem + 1, ^uint64(0)} {
			if b, err := s.Alloc(c, size); !errors.Is(err, ErrBadSize) {
				t.Errorf("harden=%v: Alloc(%#x) = %#x, %v; want ErrBadSize", cfg.Harden != nil, size, b, err)
			}
			if b, err := s.AllocZeroed(c, size); !errors.Is(err, ErrBadSize) {
				t.Errorf("harden=%v: AllocZeroed(%#x) = %#x, %v; want ErrBadSize", cfg.Harden != nil, size, b, err)
			}
			if b, err := s.AllocWait(c, size); !errors.Is(err, ErrBadSize) {
				t.Errorf("harden=%v: AllocWait(%#x) = %#x, %v; want ErrBadSize", cfg.Harden != nil, size, b, err)
			}
		}
		if err := s.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCustomClasses(t *testing.T) {
	s := newSys(t, Config{Classes: []uint32{64, 256, 1024}})
	c := s.CPU(0)
	ck, err := s.GetCookie(100)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Size() != 256 {
		t.Fatalf("cookie size %d, want 256", ck.Size())
	}
	b, _ := s.AllocCookie(c, ck)
	s.FreeCookie(c, b, ck)
}

func TestCustomTargets(t *testing.T) {
	s := newSys(t, Config{
		Target:    func(uint32) int { return 4 },
		GblTarget: func(uint32) int { return 6 },
	})
	c := s.CPU(0)
	for i := 0; i < 100; i++ {
		b, err := s.Alloc(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		s.Free(c, b, 64)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNativeModeConcurrent(t *testing.T) {
	s := newSys(t, Config{Mode: Native, CPUs: 4, PhysPages: 4096})
	var wg sync.WaitGroup
	for i := 0; i < s.NumCPUs(); i++ {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			ck, err := s.GetCookie(128)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 10000; j++ {
				b, err := s.AllocCookie(c, ck)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				s.Bytes(b, 128)[9] = byte(j)
				s.FreeCookie(c, b, ck)
			}
		}(s.CPU(i))
	}
	wg.Wait()
	s.DrainAll(s.CPU(0))
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSimDeterministic(t *testing.T) {
	run := func() int64 {
		s := newSys(t, Config{CPUs: 3})
		ck, _ := s.GetCookie(64)
		s.Machine().RunFor(0.001, func(c *CPU) {
			b, err := s.AllocCookie(c, ck)
			if err == nil {
				s.FreeCookie(c, b, ck)
			}
		})
		var sum int64
		for i := 0; i < s.NumCPUs(); i++ {
			sum += s.CPU(i).Now()
		}
		return sum
	}
	if run() != run() {
		t.Fatal("not deterministic")
	}
}

func TestPoisonMode(t *testing.T) {
	s := newSys(t, Config{Poison: true})
	c := s.CPU(0)
	b, _ := s.Alloc(c, 64)
	s.Free(c, b, 64)
	s.Bytes(b+16, 1)[0] = 0x00 // scribble on freed memory
	defer func() {
		if recover() == nil {
			t.Fatal("poison violation not detected")
		}
	}()
	for i := 0; i < 64; i++ {
		if nb, err := s.Alloc(c, 64); err == nil && nb == b {
			break
		}
	}
}
