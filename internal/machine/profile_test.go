package machine

import "testing"

func TestLineProfileAttributesTraffic(t *testing.T) {
	m := simMachine(2)
	m.EnableLineProfile()
	hot := m.NewMetaLine()
	m.NameMetaLine(hot, "lock-word")
	cold := m.NewMetaLine()

	// Ping-pong the hot line; touch the cold one once.
	for i := 0; i < 50; i++ {
		m.CPU(0).Atomic(hot)
		m.CPU(1).Atomic(hot)
	}
	m.CPU(0).Read(cold)

	top := m.TopLines(2)
	if len(top) != 2 {
		t.Fatalf("%d lines profiled", len(top))
	}
	if top[0].Line != hot || top[0].Name != "lock-word" {
		t.Fatalf("hottest = %+v", top[0])
	}
	if top[0].Atomics != 100 {
		t.Fatalf("hot atomics = %d", top[0].Atomics)
	}
	if top[1].Misses != 1 {
		t.Fatalf("cold misses = %d", top[1].Misses)
	}
}

func TestLineProfileHitsNotCounted(t *testing.T) {
	m := simMachine(1)
	m.EnableLineProfile()
	l := Line(7)
	c := m.CPU(0)
	c.Read(l) // cold miss
	for i := 0; i < 10; i++ {
		c.Read(l) // hits
	}
	top := m.TopLines(10)
	if len(top) != 1 || top[0].Misses != 1 {
		t.Fatalf("profile = %+v", top)
	}
}

func TestLineProfileDisable(t *testing.T) {
	m := simMachine(1)
	m.EnableLineProfile()
	m.CPU(0).Read(Line(1))
	m.DisableLineProfile()
	if got := m.TopLines(5); len(got) != 0 {
		t.Fatalf("profile survived disable: %v", got)
	}
}

func TestLineProfileNativePanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Native
	m := New(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic in native mode")
		}
	}()
	m.EnableLineProfile()
}

func TestTopLinesDeterministicOrder(t *testing.T) {
	m := simMachine(1)
	m.EnableLineProfile()
	c := m.CPU(0)
	// Three lines, one miss each: order must be by line id.
	for _, l := range []Line{30, 10, 20} {
		c.Read(l)
	}
	top := m.TopLines(3)
	if top[0].Line != 10 || top[1].Line != 20 || top[2].Line != 30 {
		t.Fatalf("order: %v", top)
	}
}
