package streams

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"kmem/internal/core"
	"kmem/internal/machine"
)

func newTest(t *testing.T, ncpu int, mode machine.Mode) (*Subsystem, *core.Allocator, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Mode = mode
	cfg.NumCPUs = ncpu
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 2048
	m := machine.New(cfg)
	al, err := core.New(m, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(al)
	if err != nil {
		t.Fatal(err)
	}
	return s, al, m
}

func quiesce(t *testing.T, s *Subsystem, al *core.Allocator, m *machine.Machine) {
	t.Helper()
	al.DrainAll(m.CPU(0))
	if err := al.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocbFreeb(t *testing.T) {
	s, al, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	msg, err := s.Allocb(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.Msgdsize(c, msg) != 0 {
		t.Fatal("fresh message not empty")
	}
	if err := s.Write(c, msg, []byte("hello, world")); err != nil {
		t.Fatal(err)
	}
	if got := s.Msgdsize(c, msg); got != 12 {
		t.Fatalf("msgdsize = %d", got)
	}
	p := make([]byte, 32)
	n := s.Read(c, msg, p)
	if string(p[:n]) != "hello, world" {
		t.Fatalf("read %q", p[:n])
	}
	s.Freeb(c, msg)
	quiesce(t, s, al, m)
}

func TestBufferOverflowRejected(t *testing.T) {
	s, _, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	msg, _ := s.Allocb(c, 16)
	if err := s.Write(c, msg, make([]byte, 17)); err == nil {
		t.Fatal("overflow accepted")
	}
	s.Freeb(c, msg)
}

func TestDupbSharesData(t *testing.T) {
	s, al, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	msg, _ := s.Allocb(c, 64)
	_ = s.Write(c, msg, []byte("retained"))
	dup, err := s.Dupb(c, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Freeing the original must keep the data alive for the dup.
	s.Freeb(c, msg)
	p := make([]byte, 16)
	n := s.Read(c, dup, p)
	if string(p[:n]) != "retained" {
		t.Fatalf("dup read %q", p[:n])
	}
	s.Freeb(c, dup)
	quiesce(t, s, al, m)
}

func TestFreemsgChains(t *testing.T) {
	s, al, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	head, _ := s.Allocb(c, 32)
	for i := 0; i < 5; i++ {
		extra, _ := s.Allocb(c, 32)
		_ = s.Write(c, extra, []byte{byte(i)})
		s.Linkb(c, head, extra)
	}
	if got := s.Msgdsize(c, head); got != 5 {
		t.Fatalf("msgdsize = %d", got)
	}
	s.Freemsg(c, head)
	quiesce(t, s, al, m)
}

func TestCopymsgIndependence(t *testing.T) {
	s, al, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	orig, _ := s.Allocb(c, 64)
	_ = s.Write(c, orig, []byte("original"))
	cp, err := s.Copymsg(c, orig)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the copy must not affect the original.
	w := s.Rptr(c, cp)
	copy(m.Mem().Bytes(w, 8), "CLOBBERD")
	p := make([]byte, 16)
	n := s.Read(c, orig, p)
	if string(p[:n]) != "original" {
		t.Fatalf("original corrupted: %q", p[:n])
	}
	s.Freeb(c, orig)
	s.Freemsg(c, cp)
	quiesce(t, s, al, m)
}

func TestPullupmsg(t *testing.T) {
	s, al, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	head, _ := s.Allocb(c, 16)
	_ = s.Write(c, head, []byte("seg1-"))
	for _, part := range []string{"seg2-", "seg3"} {
		b, _ := s.Allocb(c, 16)
		_ = s.Write(c, b, []byte(part))
		s.Linkb(c, head, b)
	}
	flat, err := s.Pullupmsg(c, head)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cont(c, flat) != 0 {
		t.Fatal("pullup left a chain")
	}
	p := make([]byte, 32)
	n := s.Read(c, flat, p)
	if string(p[:n]) != "seg1-seg2-seg3" {
		t.Fatalf("pullup data %q", p[:n])
	}
	s.Freeb(c, flat)
	quiesce(t, s, al, m)
}

func TestQueueFIFO(t *testing.T) {
	s, al, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	q := s.NewQueue()
	var msgs []Msg
	for i := 0; i < 10; i++ {
		msg, _ := s.Allocb(c, 32)
		_ = s.Write(c, msg, []byte{byte(i)})
		q.Putq(c, msg)
		msgs = append(msgs, msg)
	}
	if q.Len(c) != 10 {
		t.Fatalf("len = %d", q.Len(c))
	}
	for i := 0; i < 10; i++ {
		msg := q.Getq(c)
		if msg != msgs[i] {
			t.Fatalf("dequeue %d: got %#x want %#x", i, msg, msgs[i])
		}
		s.Freeb(c, msg)
	}
	if q.Getq(c) != 0 {
		t.Fatal("empty queue returned a message")
	}
	quiesce(t, s, al, m)
}

func TestCrossCPUPipelineSim(t *testing.T) {
	// Producer on CPU 0, consumer on CPU 1, deterministic simulation.
	s, al, m := newTest(t, 2, machine.Sim)
	q := s.NewQueue()
	sent, recvd := 0, 0
	const total = 2000
	m.Run(func(c *machine.CPU) bool {
		switch c.ID() {
		case 0:
			if sent >= total {
				return false
			}
			msg, err := s.Allocb(c, 256)
			if err != nil {
				t.Fatalf("allocb: %v", err)
			}
			_ = s.Write(c, msg, []byte("payload"))
			q.Putq(c, msg)
			sent++
			return true
		default:
			msg := q.Getq(c)
			if msg != 0 {
				s.Freemsg(c, msg)
				recvd++
			} else {
				c.Work(50) // poll idle
			}
			return recvd < total
		}
	})
	if recvd != total {
		t.Fatalf("received %d of %d", recvd, total)
	}
	quiesce(t, s, al, m)
	// The producer/consumer split must have exercised the global layer.
	st := al.Stats(m.CPU(0))
	var gets uint64
	for _, cs := range st.Classes {
		gets += cs.GlobalGets
	}
	if gets == 0 {
		t.Fatal("pipeline never reached the global layer")
	}
}

func TestNativePipelineRace(t *testing.T) {
	// Real goroutines through the queue, for the race detector.
	s, al, m := newTest(t, 4, machine.Native)
	q := s.NewQueue()
	const perProducer = 5000
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				msg, err := s.Allocb(c, 128)
				if err != nil {
					t.Errorf("allocb: %v", err)
					return
				}
				_ = s.Write(c, msg, []byte("x"))
				q.Putq(c, msg)
			}
		}(m.CPU(p))
	}
	var got sync.WaitGroup
	var mu sync.Mutex
	n := 0
	for p := 2; p < 4; p++ {
		got.Add(1)
		go func(c *machine.CPU) {
			defer got.Done()
			for {
				mu.Lock()
				if n >= 2*perProducer {
					mu.Unlock()
					return
				}
				mu.Unlock()
				if msg := q.Getq(c); msg != 0 {
					s.Freemsg(c, msg)
					mu.Lock()
					n++
					mu.Unlock()
				}
			}
		}(m.CPU(p))
	}
	wg.Wait()
	got.Wait()
	quiesce(t, s, al, m)
}

func TestQuickMessageOps(t *testing.T) {
	// Property: any sequence of allocb/dupb/linkb/freeb/freemsg leaves the
	// allocator consistent with zero outstanding memory after final frees.
	s, al, m := newTest(t, 1, machine.Sim)
	c := m.CPU(0)
	f := func(ops []uint8) bool {
		var live []Msg
		for _, op := range ops {
			switch {
			case op < 120 || len(live) == 0:
				msg, err := s.Allocb(c, uint64(op)*8+1)
				if err != nil {
					return false
				}
				live = append(live, msg)
			case op < 170:
				d, err := s.Dupb(c, live[int(op)%len(live)])
				if err != nil {
					return false
				}
				live = append(live, d)
			case op < 220 && len(live) >= 2:
				// Link the last message onto a random earlier one.
				i := int(op) % (len(live) - 1)
				s.Linkb(c, live[i], live[len(live)-1])
				live = live[:len(live)-1]
			default:
				i := int(op) % len(live)
				s.Freemsg(c, live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for _, msg := range live {
			s.Freemsg(c, msg)
		}
		al.DrainAll(c)
		return al.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDataSurvivesQueuePassage(t *testing.T) {
	s, al, m := newTest(t, 2, machine.Sim)
	c0, c1 := m.CPU(0), m.CPU(1)
	q := s.NewQueue()
	payload := bytes.Repeat([]byte{0xa5}, 200)
	msg, _ := s.Allocb(c0, 256)
	_ = s.Write(c0, msg, payload)
	q.Putq(c0, msg)

	got := q.Getq(c1)
	p := make([]byte, 256)
	n := s.Read(c1, got, p)
	if !bytes.Equal(p[:n], payload) {
		t.Fatal("payload corrupted crossing CPUs")
	}
	s.Freeb(c1, got)
	quiesce(t, s, al, m)
}
