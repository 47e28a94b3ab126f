package machine

import "testing"

func tlbMachine(entries int) *Machine {
	cfg := DefaultConfig()
	cfg.MemBytes = 8 << 20
	cfg.PhysPages = 512
	cfg.TLBEntries = entries
	return New(cfg)
}

func TestTLBMissOnFirstTouch(t *testing.T) {
	m := tlbMachine(32)
	c := m.CPU(0)
	l := m.LineOf(0x5000)
	c.Read(l)
	if got := c.Stats().TLBMisses; got != 1 {
		t.Fatalf("TLB misses = %d", got)
	}
	// Same page, different line: no new TLB miss.
	c.Read(m.LineOf(0x5040))
	if got := c.Stats().TLBMisses; got != 1 {
		t.Fatalf("TLB misses after same-page access = %d", got)
	}
	// Different page: one more.
	c.Read(m.LineOf(0x9000))
	if got := c.Stats().TLBMisses; got != 2 {
		t.Fatalf("TLB misses after new page = %d", got)
	}
}

func TestTLBConflictEviction(t *testing.T) {
	m := tlbMachine(2) // tiny: pages 2 apart conflict
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes
	a := m.LineOf(1 * pageBytes)
	b := m.LineOf(3 * pageBytes) // same TLB slot as page 1 (1%2 == 3%2)
	c.Read(a)
	c.Read(b)
	c.Read(a) // evicted: miss again
	if got := c.Stats().TLBMisses; got != 3 {
		t.Fatalf("TLB misses = %d, want 3", got)
	}
}

func TestTLBMissChargesCycles(t *testing.T) {
	with := tlbMachine(32)
	without := tlbMachine(0)
	cw, co := with.CPU(0), without.CPU(0)
	cw.Read(Line(100))
	co.Read(Line(100))
	diff := cw.Now() - co.Now()
	if diff != TLBMissCycles {
		t.Fatalf("TLB cost = %d, want %d", diff, TLBMissCycles)
	}
}

func TestTLBMetaLinesExempt(t *testing.T) {
	m := tlbMachine(32)
	c := m.CPU(0)
	c.Read(m.NewMetaLine())
	if got := c.Stats().TLBMisses; got != 0 {
		t.Fatalf("meta line charged a TLB miss")
	}
}

func TestTLBDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TLBEntries != 0 {
		t.Fatal("TLB enabled by default; calibration figures assume it off")
	}
}

func TestTLBBadConfigPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLBEntries = 3
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two TLBEntries accepted")
		}
	}()
	New(cfg)
}
