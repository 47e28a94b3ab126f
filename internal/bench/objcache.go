package bench

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/streams"
)

// The objcache sweep measures the tentpole claim of the typed-cache
// layer: the STREAMS triple (message block + data block + buffer)
// alloc/free pair over named object caches must beat the plain cookie
// path, because a warm cache skips the constructor and re-links nothing
// — the triple comes back in exactly the shape the last Freeb left it.
//
// The "cookie" mode below replicates the pre-objcache STREAMS
// implementation instruction for instruction: one standard Alloc for the
// buffer, two cookie allocations for the blocks, and the nine
// initializing stores the paper calls the "nearly fixed code sequence";
// Freeb walks the links back and issues the three frees. The "objcache"
// mode runs the live internal/streams implementation on its named
// caches.

// ObjCachePoint is one buffer size of the sweep.
type ObjCachePoint struct {
	BufSize uint64
	// CookieInsns and ObjCacheInsns are simulated instructions per
	// Allocb/Freeb pair, steady state (after warmup).
	CookieInsns   float64
	ObjCacheInsns float64
	// WinPct is the objcache improvement over the cookie path in percent.
	WinPct float64
	// CtorRuns/CtorSkips are the event-spine tallies (EvCtorRun,
	// EvCtorSkip) across the objcache run; SkipRatio = skips/(runs+skips).
	CtorRuns  uint64
	CtorSkips uint64
	SkipRatio float64
}

// ObjCacheResult is the full sweep.
type ObjCacheResult struct {
	Pairs  int
	Warmup int
	Points []ObjCachePoint
}

// cookieStreams is the frozen pre-objcache STREAMS triple, kept only as
// the benchmark baseline. Field offsets match the old layout.
type cookieStreams struct {
	al   *core.Allocator
	mem  *arena.Arena
	mblk core.Cookie
	dblk core.Cookie
	lk   *machine.SpinLock
}

const (
	ckMbRptr  = 16
	ckMbWptr  = 24
	ckMbDatap = 32
	ckDbBase  = 0
	ckDbLim   = 8
	ckDbRef   = 16
	ckDbSize  = 24
	ckBlk     = 64
)

func newCookieStreams(al *core.Allocator) (*cookieStreams, error) {
	s := &cookieStreams{al: al, mem: al.Machine().Mem(), lk: machine.NewSpinLock(al.Machine())}
	var err error
	if s.mblk, err = al.GetCookie(ckBlk); err != nil {
		return nil, err
	}
	if s.dblk, err = al.GetCookie(ckBlk); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *cookieStreams) put(c *machine.CPU, addr arena.Addr, v uint64) {
	c.WriteAddr(addr)
	s.mem.Store64(addr, v)
}

func (s *cookieStreams) get(c *machine.CPU, addr arena.Addr) uint64 {
	c.ReadAddr(addr)
	return s.mem.Load64(addr)
}

func (s *cookieStreams) allocb(c *machine.CPU, size uint64) (arena.Addr, error) {
	buf, err := s.al.Alloc(c, size)
	if err != nil {
		return 0, err
	}
	db, err := s.al.AllocCookie(c, s.dblk)
	if err != nil {
		s.al.Free(c, buf, size)
		return 0, err
	}
	mb, err := s.al.AllocCookie(c, s.mblk)
	if err != nil {
		s.al.FreeCookie(c, db, s.dblk)
		s.al.Free(c, buf, size)
		return 0, err
	}
	s.put(c, db+ckDbBase, buf)
	s.put(c, db+ckDbLim, buf+size)
	s.put(c, db+ckDbRef, 1)
	s.put(c, db+ckDbSize, size)
	s.put(c, mb+0, 0) // b_next
	s.put(c, mb+8, 0) // b_cont
	s.put(c, mb+ckMbRptr, buf)
	s.put(c, mb+ckMbWptr, buf)
	s.put(c, mb+ckMbDatap, db)
	return mb, nil
}

func (s *cookieStreams) freeb(c *machine.CPU, mb arena.Addr) {
	db := arena.Addr(s.get(c, mb+ckMbDatap))
	s.al.FreeCookie(c, mb, s.mblk)
	s.lk.Acquire(c)
	ref := s.get(c, db+ckDbRef) - 1
	s.put(c, db+ckDbRef, ref)
	s.lk.Release(c)
	if ref == 0 {
		base := arena.Addr(s.get(c, db+ckDbBase))
		size := s.get(c, db+ckDbSize)
		s.al.FreeCookie(c, db, s.dblk)
		s.al.Free(c, base, size)
	}
}

// RunObjCache runs the sweep: for each buffer size, `pairs` steady-state
// Allocb/Freeb pairs on the cookie baseline and on the objcache-backed
// STREAMS, measured in simulated instructions per pair on CPU 0.
func RunObjCache(sizes []uint64, pairs int) (*ObjCacheResult, error) {
	const warmup = 64
	res := &ObjCacheResult{Pairs: pairs, Warmup: warmup}
	for _, size := range sizes {
		cookie, err := runObjCacheCookie(size, pairs, warmup)
		if err != nil {
			return nil, fmt.Errorf("cookie size %d: %w", size, err)
		}
		oc, runs, skips, err := runObjCacheStreams(size, pairs, warmup)
		if err != nil {
			return nil, fmt.Errorf("objcache size %d: %w", size, err)
		}
		p := ObjCachePoint{
			BufSize:       size,
			CookieInsns:   cookie,
			ObjCacheInsns: oc,
			WinPct:        (cookie - oc) / cookie * 100,
			CtorRuns:      runs,
			CtorSkips:     skips,
		}
		if total := runs + skips; total > 0 {
			p.SkipRatio = float64(skips) / float64(total)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

func runObjCacheCookie(size uint64, pairs, warmup int) (float64, error) {
	m := machine.New(MachineFor(1, 16<<20, 2048))
	al, err := core.New(m, core.Params{})
	if err != nil {
		return 0, err
	}
	s, err := newCookieStreams(al)
	if err != nil {
		return 0, err
	}
	c := m.CPU(0)
	return insnsPerPair(c, warmup, pairs, func() error {
		mb, err := s.allocb(c, size)
		if err == nil {
			s.freeb(c, mb)
		}
		return err
	})
}

func runObjCacheStreams(size uint64, pairs, warmup int) (float64, uint64, uint64, error) {
	m := machine.New(MachineFor(1, 16<<20, 2048))
	var ec core.EventCounter
	al, err := core.New(m, core.Params{Hook: ec.Hook()})
	if err != nil {
		return 0, 0, 0, err
	}
	s, err := streams.New(al)
	if err != nil {
		return 0, 0, 0, err
	}
	c := m.CPU(0)
	insns, err := insnsPerPair(c, warmup, pairs, func() error {
		mb, err := s.Allocb(c, size)
		if err == nil {
			s.Freeb(c, mb)
		}
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	// Ctor skips publish to the event spine in arrears (the fast path is
	// emission-free); a full drain flushes the remainder before reading.
	al.DrainAll(c)
	return insns, ec.Count(core.EvCtorRun), ec.Count(core.EvCtorSkip), nil
}

// Table renders the sweep.
func (r *ObjCacheResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf(
			"STREAMS triple alloc/free pair: cookie path vs named object caches (%d pairs, simulated instructions)",
			r.Pairs),
		Headers: []string{"buf size", "cookie insns/pair", "objcache insns/pair", "win", "ctor runs", "ctor skips", "skip ratio"},
	}
	for _, p := range r.Points {
		t.AddRowf("%d|%.1f|%.1f|%.1f%%|%d|%d|%.3f",
			p.BufSize, p.CookieInsns, p.ObjCacheInsns, p.WinPct, p.CtorRuns, p.CtorSkips, p.SkipRatio)
	}
	return t
}
