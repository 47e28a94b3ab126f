// Package streams reimplements the STREAMS buffer allocator whose
// behaviour opens the paper's Analysis section: allocb must "find a
// buffer capable of holding the specified number of bytes, allocate a
// message block and data block, and initialize them so that the message
// block points to the data block that points to the STREAMS buffer".
//
// As the paper describes for DYNIX ("special-purpose allocators such as
// allocb invoke the same functions as does the general-purpose kmem_alloc
// allocator" — reuse at the binary level), every structure here lives in
// arena memory obtained from the kernel memory allocator. Since the typed
// object-cache layer (internal/objcache) was added, the structures come
// from named caches over that allocator rather than raw cookie calls:
//
//   - "streams:mblk" holds message blocks whose b_next/b_cont are
//     constructed to zero, so allocb and dupb write only the three
//     per-message fields (rptr, wptr, datap) instead of all five.
//   - "streams:dblk<n>" caches fuse the data block and its buffer into
//     one backing allocation per power-of-two ladder size, the Solaris
//     refinement of the paper's split triple: a warm allocb performs two
//     magazine gets and four stores where the PR 6 code path performed
//     three allocator calls and nine stores. db_base, db_ref = 1,
//     db_size, and db_kind are constructed state; only db_lim (the
//     caller's requested capacity) is written per-allocation.
//   - "streams:dblk" holds bare data blocks for esballoc's external
//     buffers and for oversize requests whose buffer still comes from
//     the standard kmem interface.
//
// The message-block / data-block split continues to exist so a data
// block (and its buffer) can be shared by several messages via reference
// counting (dupb), e.g. to retain data for possible retransmission; the
// constructed db_ref = 1 also lets the common last-reference freeb skip
// the count writeback entirely.
package streams

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

// ErrNoMemory is returned when the underlying allocator is exhausted.
var ErrNoMemory = errors.New("streams: out of buffers")

// Msg is a message block handle: the arena address of an mblk.
type Msg = arena.Addr

// mblk field offsets. The 40-byte object rides in a 64-byte class block;
// the cache colors successive mblks across its slack.
const (
	mbNext      = 0  // b_next: next message on a queue
	mbCont      = 8  // b_cont: next block of this message
	mbRptr      = 16 // b_rptr: first unread byte
	mbWptr      = 24 // b_wptr: first unwritten byte
	mbDatap     = 32 // b_datap: the data block
	mblkObjSize = 40
)

// dblk field offsets.
const (
	dbBase      = 0  // db_base: buffer start
	dbLim       = 8  // db_lim: end of the caller's requested capacity
	dbRef       = 16 // db_ref: reference count (constructed to 1)
	dbSize      = 24 // buffer capacity owned by this dblk (0 = none)
	dbKind      = 32 // disposal route: which cache or path frees this dblk
	dblkObjSize = 40
	// dblkHdr is where an inline buffer starts within a fused
	// dblk+buffer object.
	dblkHdr = 64
)

// db_kind values. Kinds >= dbKindInline are inline-buffer cache indices
// biased by dbKindInline.
const (
	dbKindExternal = 0 // esballoc: buffer is the caller's, frtn frees it
	dbKindOversize = 1 // buffer separately allocated via the standard path
	dbKindInline   = 2
)

// inlineBufSizes is the buffer-capacity ladder of the fused dblk+buffer
// caches: each entry plus the dblkHdr header lands exactly on one of the
// allocator's power-of-two classes (128..4096), so the fusion wastes no
// slack beyond what the split design already lost to rounding.
var inlineBufSizes = []uint64{
	128 - dblkHdr,  // 64
	256 - dblkHdr,  // 192
	512 - dblkHdr,  // 448
	1024 - dblkHdr, // 960
	2048 - dblkHdr, // 1984
	4096 - dblkHdr, // 4032
}

// Subsystem is one machine's STREAMS buffer allocator, layered on the
// kernel memory allocator through typed object caches.
type Subsystem struct {
	al  *core.Allocator
	mem *arena.Arena

	mblks *objcache.Cache // "streams:mblk"
	dblks *objcache.Cache // "streams:dblk" (bare: esballoc / oversize)
	// inline[i] fuses a dblk with an inlineBufSizes[i]-byte buffer.
	inline []*objcache.Cache

	// refLocks guard dblk reference counts (standing in for the atomic
	// decrement of db_ref; in the simulator an acquisition charges the
	// bus-locked RMW this would be).
	refLocks [16]*machine.SpinLock

	// frtns maps live external data blocks (esballoc) to their
	// caller-supplied free routines.
	frtnMu sync.Mutex
	frtns  map[arena.Addr]FreeRtn

	allocbs, freebs, dupbs atomic.Uint64
}

// New builds a STREAMS subsystem over the given kernel allocator.
func New(al *core.Allocator) (*Subsystem, error) {
	s := &Subsystem{al: al, mem: al.Machine().Mem()}
	m := al.Machine()
	var err error

	// Message blocks: next/cont constructed to zero. allocb writes only
	// rptr/wptr/datap; freeb restores next/cont before recycling.
	s.mblks, err = objcache.New(m, al, "streams:mblk", mblkObjSize, 8,
		func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) {
			c.WriteAddr(obj + mbNext)
			mem.Store64(obj+mbNext, 0)
			c.WriteAddr(obj + mbCont)
			mem.Store64(obj+mbCont, 0)
		}, nil, objcache.Opts{})
	if err != nil {
		return nil, err
	}

	// Bare data blocks (external/oversize): only db_ref is constructed —
	// base, lim, size, and kind are per-use on these rare paths.
	s.dblks, err = objcache.New(m, al, "streams:dblk", dblkObjSize, 8,
		func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) {
			c.WriteAddr(obj + dbRef)
			mem.Store64(obj+dbRef, 1)
		}, nil, objcache.Opts{})
	if err != nil {
		return nil, err
	}

	// Fused dblk+buffer caches, one per ladder size the allocator's
	// classes can hold. db_lim is deliberately not constructed: it
	// carries the caller's requested size, so Write still overflows at
	// exactly the bytes asked for, not at the fused capacity.
	for i, bufSize := range inlineBufSizes {
		if dblkHdr+bufSize > uint64(al.MaxSmall()) {
			break
		}
		kind := uint64(dbKindInline + i)
		k, err := objcache.New(m, al, fmt.Sprintf("streams:dblk%d", bufSize),
			dblkHdr+bufSize, 8,
			func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) {
				c.WriteAddr(obj + dbBase)
				mem.Store64(obj+dbBase, uint64(obj+dblkHdr))
				c.WriteAddr(obj + dbRef)
				mem.Store64(obj+dbRef, 1)
				c.WriteAddr(obj + dbSize)
				mem.Store64(obj+dbSize, bufSize)
				c.WriteAddr(obj + dbKind)
				mem.Store64(obj+dbKind, kind)
			}, nil, objcache.Opts{})
		if err != nil {
			return nil, err
		}
		s.inline = append(s.inline, k)
	}

	for i := range s.refLocks {
		s.refLocks[i] = machine.NewSpinLock(m)
	}
	return s, nil
}

func (s *Subsystem) refLock(d arena.Addr) *machine.SpinLock {
	return s.refLocks[(d>>6)%uint64(len(s.refLocks))]
}

// --- field access ---------------------------------------------------------

func (s *Subsystem) get(c *machine.CPU, addr arena.Addr) arena.Addr {
	c.ReadAddr(addr)
	return s.mem.Load64(addr)
}

func (s *Subsystem) put(c *machine.CPU, addr arena.Addr, v uint64) {
	c.WriteAddr(addr)
	s.mem.Store64(addr, v)
}

// Cont returns the next block of the message (b_cont), or 0.
func (s *Subsystem) Cont(c *machine.CPU, m Msg) Msg { return s.get(c, m+mbCont) }

// Next returns the next message on a queue (b_next), or 0.
func (s *Subsystem) Next(c *machine.CPU, m Msg) Msg { return s.get(c, m+mbNext) }

// Rptr returns the message's read pointer.
func (s *Subsystem) Rptr(c *machine.CPU, m Msg) arena.Addr { return s.get(c, m+mbRptr) }

// Wptr returns the message's write pointer.
func (s *Subsystem) Wptr(c *machine.CPU, m Msg) arena.Addr { return s.get(c, m+mbWptr) }

// SetWptr advances the write pointer (after the caller filled data).
func (s *Subsystem) SetWptr(c *machine.CPU, m Msg, w arena.Addr) { s.put(c, m+mbWptr, w) }

// SetRptr advances the read pointer (after the caller consumed data).
func (s *Subsystem) SetRptr(c *machine.CPU, m Msg, r arena.Addr) { s.put(c, m+mbRptr, r) }

// Datap returns the message's data block address.
func (s *Subsystem) Datap(c *machine.CPU, m Msg) arena.Addr { return s.get(c, m+mbDatap) }

// Limit returns the end of the message's buffer (db_lim).
func (s *Subsystem) Limit(c *machine.CPU, m Msg) arena.Addr {
	return s.get(c, s.Datap(c, m)+dbLim)
}

// --- allocation -----------------------------------------------------------

// inlineFor returns the fused dblk+buffer cache serving size, or nil
// when size exceeds the ladder (the oversize path).
func (s *Subsystem) inlineFor(size uint64) *objcache.Cache {
	for i, bufSize := range inlineBufSizes[:len(s.inline)] {
		if size <= bufSize {
			return s.inline[i]
		}
	}
	return nil
}

// newMblk gets a constructed message block (next/cont already zero) and
// writes its three per-message fields.
func (s *Subsystem) newMblk(c *machine.CPU, rptr, wptr, db arena.Addr) (Msg, error) {
	mb, err := s.mblks.Get(c)
	if err != nil {
		return 0, ErrNoMemory
	}
	s.put(c, mb+mbRptr, uint64(rptr))
	s.put(c, mb+mbWptr, uint64(wptr))
	s.put(c, mb+mbDatap, uint64(db))
	return mb, nil
}

// Allocb allocates a message: message block + data block + buffer of at
// least size bytes, linked together, with rptr = wptr = buffer base.
// The common case is two magazine gets from constructed caches; only
// db_lim and the mblk's three pointers are written.
func (s *Subsystem) Allocb(c *machine.CPU, size uint64) (Msg, error) {
	if size == 0 {
		return 0, fmt.Errorf("streams: allocb(0)")
	}
	if k := s.inlineFor(size); k != nil {
		db, err := k.Get(c)
		if err != nil {
			return 0, ErrNoMemory
		}
		buf := db + dblkHdr
		s.put(c, db+dbLim, uint64(buf+arena.Addr(size)))
		mb, err := s.newMblk(c, buf, buf, db)
		if err != nil {
			k.Put(c, db)
			return 0, ErrNoMemory
		}
		s.allocbs.Add(1)
		return mb, nil
	}
	return s.allocbOversize(c, size)
}

// allocbOversize serves requests beyond the inline ladder: the buffer
// comes from the standard kmem interface and a bare dblk records how to
// free it.
func (s *Subsystem) allocbOversize(c *machine.CPU, size uint64) (Msg, error) {
	buf, err := s.al.Alloc(c, size)
	if err != nil {
		return 0, ErrNoMemory
	}
	db, err := s.dblks.Get(c)
	if err != nil {
		s.al.Free(c, buf, size)
		return 0, ErrNoMemory
	}
	s.put(c, db+dbBase, uint64(buf))
	s.put(c, db+dbLim, uint64(buf+arena.Addr(size)))
	s.put(c, db+dbSize, size)
	s.put(c, db+dbKind, dbKindOversize)
	mb, err := s.newMblk(c, buf, buf, db)
	if err != nil {
		s.dblks.Put(c, db)
		s.al.Free(c, buf, size)
		return 0, ErrNoMemory
	}
	s.allocbs.Add(1)
	return mb, nil
}

// Dupb allocates a new message block referencing the same data block and
// buffer (db_ref is incremented); the new block gets its own rptr/wptr.
func (s *Subsystem) Dupb(c *machine.CPU, m Msg) (Msg, error) {
	db := s.Datap(c, m)
	mb, err := s.newMblk(c, s.get(c, m+mbRptr), s.get(c, m+mbWptr), db)
	if err != nil {
		return 0, ErrNoMemory
	}
	lk := s.refLock(db)
	lk.Acquire(c)
	s.put(c, db+dbRef, s.get(c, db+dbRef)+1)
	lk.Release(c)
	s.dupbs.Add(1)
	return mb, nil
}

// Freeb frees one message block; the data block and buffer are recycled
// when the last reference drops. The mblk's next/cont are restored to
// their constructed zeros; the last-reference dblk keeps its constructed
// db_ref = 1, so the common freeb writes no dblk field at all.
func (s *Subsystem) Freeb(c *machine.CPU, m Msg) {
	db := s.Datap(c, m)
	s.put(c, m+mbNext, 0)
	s.put(c, m+mbCont, 0)
	s.mblks.Put(c, m)

	lk := s.refLock(db)
	lk.Acquire(c)
	ref := s.get(c, db+dbRef)
	if ref > 1 {
		s.put(c, db+dbRef, ref-1)
		lk.Release(c)
		s.freebs.Add(1)
		return
	}
	lk.Release(c)

	// Last reference: dispose by kind, constructed state intact.
	kind := s.get(c, db+dbKind)
	switch kind {
	case dbKindExternal:
		s.releaseExternal(c, db)
		s.dblks.Put(c, db)
	case dbKindOversize:
		base := s.get(c, db+dbBase)
		size := s.get(c, db+dbSize)
		s.dblks.Put(c, db)
		s.al.Free(c, base, size)
	default:
		s.inline[kind-dbKindInline].Put(c, db)
	}
	s.freebs.Add(1)
}

// Freemsg frees every block of a segmented message (the b_cont chain);
// the paper's freeb trace was "a back-to-back pair of freebs invoked from
// freemsg".
func (s *Subsystem) Freemsg(c *machine.CPU, m Msg) {
	for m != 0 {
		next := s.Cont(c, m)
		s.Freeb(c, m)
		m = next
	}
}

// Linkb appends extra to the end of m's b_cont chain, forming a
// segmented message.
func (s *Subsystem) Linkb(c *machine.CPU, m, extra Msg) {
	for {
		next := s.Cont(c, m)
		if next == 0 {
			s.put(c, m+mbCont, extra)
			return
		}
		m = next
	}
}

// Msgdsize returns the number of data bytes in the message chain.
func (s *Subsystem) Msgdsize(c *machine.CPU, m Msg) uint64 {
	var n uint64
	for ; m != 0; m = s.Cont(c, m) {
		n += s.get(c, m+mbWptr) - s.get(c, m+mbRptr)
	}
	return n
}

// Write appends data to the message's buffer, advancing wptr. It fails
// if the buffer cannot hold the data.
func (s *Subsystem) Write(c *machine.CPU, m Msg, data []byte) error {
	w := s.Wptr(c, m)
	if w+uint64(len(data)) > s.Limit(c, m) {
		return fmt.Errorf("streams: buffer overflow")
	}
	copy(s.mem.Bytes(w, uint64(len(data))), data)
	c.WriteAddr(w)
	s.SetWptr(c, m, w+uint64(len(data)))
	return nil
}

// Read copies the message block's unread data into p, advancing rptr, and
// returns the byte count.
func (s *Subsystem) Read(c *machine.CPU, m Msg, p []byte) int {
	r, w := s.Rptr(c, m), s.Wptr(c, m)
	n := int(w - r)
	if n > len(p) {
		n = len(p)
	}
	if n > 0 {
		copy(p, s.mem.Bytes(r, uint64(n)))
		c.ReadAddr(r)
		s.SetRptr(c, m, r+uint64(n))
	}
	return n
}

// Copymsg allocates a fresh message chain with copies of the data (used
// when a writer must modify shared data).
func (s *Subsystem) Copymsg(c *machine.CPU, m Msg) (Msg, error) {
	var head, tail Msg
	for ; m != 0; m = s.Cont(c, m) {
		r, w := s.Rptr(c, m), s.Wptr(c, m)
		size := s.Limit(c, m) - s.get(c, s.Datap(c, m)+dbBase)
		nm, err := s.Allocb(c, size)
		if err != nil {
			if head != 0 {
				s.Freemsg(c, head)
			}
			return 0, err
		}
		if w > r {
			if err := s.Write(c, nm, s.mem.Bytes(r, w-r)); err != nil {
				s.Freemsg(c, head)
				s.Freeb(c, nm)
				return 0, err
			}
		}
		if head == 0 {
			head = nm
		} else {
			s.put(c, tail+mbCont, nm)
		}
		tail = nm
	}
	if head == 0 {
		return 0, fmt.Errorf("streams: copymsg of empty message")
	}
	return head, nil
}

// Pullupmsg concatenates the whole chain's data into a single new block,
// freeing the old chain (a simplified msgpullup/pullupmsg).
func (s *Subsystem) Pullupmsg(c *machine.CPU, m Msg) (Msg, error) {
	total := s.Msgdsize(c, m)
	if total == 0 {
		total = 1
	}
	nm, err := s.Allocb(c, total)
	if err != nil {
		return 0, err
	}
	for b := m; b != 0; b = s.Cont(c, b) {
		r, w := s.Rptr(c, b), s.Wptr(c, b)
		if w > r {
			if err := s.Write(c, nm, s.mem.Bytes(r, w-r)); err != nil {
				s.Freeb(c, nm)
				return 0, err
			}
		}
	}
	s.Freemsg(c, m)
	return nm, nil
}

// Stats reports subsystem counters.
type Stats struct {
	Allocbs uint64
	Freebs  uint64
	Dupbs   uint64
	// CtorRuns/CtorSkips aggregate the subsystem's caches: how many
	// block initializations ran versus were inherited from constructed
	// state.
	CtorRuns  uint64
	CtorSkips uint64
}

// Stats returns a snapshot (quiesce first or tolerate skew).
func (s *Subsystem) Stats() Stats {
	st := Stats{Allocbs: s.allocbs.Load(), Freebs: s.freebs.Load(), Dupbs: s.dupbs.Load()}
	for _, k := range s.caches() {
		ks := k.Stats()
		st.CtorRuns += ks.CtorRuns
		st.CtorSkips += ks.CtorSkips
	}
	return st
}

// caches lists the subsystem's object caches (tests and benchmarks
// inspect their stats).
func (s *Subsystem) caches() []*objcache.Cache {
	out := []*objcache.Cache{s.mblks, s.dblks}
	return append(out, s.inline...)
}

// CacheStats returns per-cache statistics keyed by cache name.
func (s *Subsystem) CacheStats() map[string]objcache.Stats {
	out := make(map[string]objcache.Stats)
	for _, k := range s.caches() {
		out[k.Name()] = k.Stats()
	}
	return out
}
