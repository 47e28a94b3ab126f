package dlm

import (
	"fmt"
	"sync/atomic"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

// Resource blocks are 512-byte kmem allocations and lock blocks 256-byte
// ones, matching the block sizes whose miss rates the paper's DLM section
// reports (frees of 256-byte blocks, allocations of 512-byte blocks).
// Both now come from typed object caches: the live structures are
// 48-byte objects riding in the paper's block sizes, and the slack pays
// for cache coloring — successive resource blocks start on different
// lines instead of stacking their hot headers on the same associativity
// sets. Resource blocks are constructed with empty queues and a zero
// lock count, which an unlock naturally restores, so re-creating a
// resource skips the queue initialization entirely.
const (
	resBlockSize  = 512
	lockBlockSize = 256
	dlmObjSize    = 48 // live fields of both block types
)

// resource block field offsets.
const (
	rResID     = 0  // resource identifier
	rHashNext  = 8  // next resource in the hash chain
	rGrantHead = 16 // granted lock queue
	rWaitHead  = 24 // waiting lock queue (FIFO)
	rWaitTail  = 32
	rLockCount = 40 // locks on both queues
)

// lock block field offsets.
const (
	lNext    = 0  // queue link
	lRes     = 8  // owning resource
	lMode    = 16 // held/requested mode
	lState   = 24 // lock state
	lOwner   = 32 // owning node
	lPending = 40 // requested mode during conversion
)

// lock states.
const (
	lsGranted = 1
	lsWaiting = 2
	lsDenied  = 3 // aborted by the deadlock detector, awaiting ReleaseDenied
)

// Grant describes a lock granted by a release, to be delivered to its
// owner.
type Grant struct {
	Lock  arena.Addr
	Owner int
}

// Manager is the resource store: a hash table of resources, each with
// grant and wait queues, every structure allocated from kmem.
type Manager struct {
	al  *core.Allocator
	mem *arena.Arena

	buckets   []bucket
	resCache  *objcache.Cache // "dlm:res"
	lockCache *objcache.Cache // "dlm:lock"

	locks      atomic.Uint64
	unlocks    atomic.Uint64
	converts   atomic.Uint64
	waits      atomic.Uint64
	aborts     atomic.Uint64
	resCreated atomic.Uint64
	resFreed   atomic.Uint64
}

type bucket struct {
	lk   *machine.SpinLock
	head arena.Addr
	line machine.Line
}

// NewManager builds a lock manager with the given hash-table size.
func NewManager(al *core.Allocator, nBuckets int) (*Manager, error) {
	if nBuckets < 1 {
		return nil, fmt.Errorf("dlm: invalid bucket count %d", nBuckets)
	}
	d := &Manager{al: al, mem: al.Machine().Mem()}
	var err error
	// Resources are constructed with empty grant/wait queues and a zero
	// lock count; Lock's create path writes only the id and hash link.
	d.resCache, err = objcache.New(al.Machine(), al, "dlm:res", dlmObjSize, 8,
		func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) {
			for _, off := range [...]uint64{rGrantHead, rWaitHead, rWaitTail, rLockCount} {
				c.WriteAddr(obj + arena.Addr(off))
				mem.Store64(obj+arena.Addr(off), 0)
			}
		}, nil, objcache.Opts{MinBackSize: resBlockSize})
	if err != nil {
		return nil, err
	}
	// Lock blocks have no reusable constructed state (every field is
	// per-request); the cache still buys magazine reuse and coloring of
	// the 256-byte paper blocks.
	d.lockCache, err = objcache.New(al.Machine(), al, "dlm:lock", dlmObjSize, 8,
		nil, nil, objcache.Opts{MinBackSize: lockBlockSize})
	if err != nil {
		return nil, err
	}
	d.buckets = make([]bucket, nBuckets)
	for i := range d.buckets {
		d.buckets[i].lk = machine.NewSpinLock(al.Machine())
		d.buckets[i].line = al.Machine().NewMetaLine()
	}
	return d, nil
}

func (d *Manager) bucketFor(resID uint64) *bucket {
	// Fibonacci hashing spreads sequential resource IDs.
	return &d.buckets[(resID*0x9e3779b97f4a7c15)>>32%uint64(len(d.buckets))]
}

func (d *Manager) get(c *machine.CPU, addr arena.Addr) uint64 {
	c.ReadAddr(addr)
	return d.mem.Load64(addr)
}

func (d *Manager) put(c *machine.CPU, addr arena.Addr, v uint64) {
	c.WriteAddr(addr)
	d.mem.Store64(addr, v)
}

// findResource walks the hash chain; caller holds the bucket lock.
func (d *Manager) findResource(c *machine.CPU, b *bucket, resID uint64) arena.Addr {
	c.Read(b.line)
	for r := b.head; r != 0; r = d.get(c, r+rHashNext) {
		c.Work(3)
		if d.get(c, r+rResID) == resID {
			return r
		}
	}
	return 0
}

// grantable reports whether mode is compatible with every granted lock,
// optionally ignoring one lock (for conversions). Caller holds the bucket
// lock.
func (d *Manager) grantable(c *machine.CPU, res arena.Addr, mode Mode, ignore arena.Addr) bool {
	for l := d.get(c, res+rGrantHead); l != 0; l = d.get(c, l+lNext) {
		c.Work(4)
		if l == ignore {
			continue
		}
		if !Compatible(Mode(d.get(c, l+lMode)), mode) {
			return false
		}
	}
	return true
}

// pushGrant prepends lock l to the grant queue.
func (d *Manager) pushGrant(c *machine.CPU, res, l arena.Addr) {
	d.put(c, l+lNext, d.get(c, res+rGrantHead))
	d.put(c, res+rGrantHead, l)
	d.put(c, l+lState, lsGranted)
}

// appendWait appends lock l to the wait queue (FIFO).
func (d *Manager) appendWait(c *machine.CPU, res, l arena.Addr) {
	d.put(c, l+lNext, 0)
	d.put(c, l+lState, lsWaiting)
	tail := d.get(c, res+rWaitTail)
	if tail == 0 {
		d.put(c, res+rWaitHead, l)
	} else {
		d.put(c, tail+lNext, l)
	}
	d.put(c, res+rWaitTail, l)
}

// removeFrom unlinks lock l from the queue rooted at res+headOff,
// maintaining the wait tail when asked. Caller holds the bucket lock.
func (d *Manager) removeFrom(c *machine.CPU, res, l arena.Addr, headOff uint64, fixTail bool) bool {
	var prev arena.Addr
	for cur := d.get(c, res+headOff); cur != 0; cur = d.get(c, cur+lNext) {
		c.Work(3)
		if cur != l {
			prev = cur
			continue
		}
		next := d.get(c, cur+lNext)
		if prev == 0 {
			d.put(c, res+headOff, next)
		} else {
			d.put(c, prev+lNext, next)
		}
		if fixTail && d.get(c, res+rWaitTail) == l {
			d.put(c, res+rWaitTail, prev)
		}
		return true
	}
	return false
}

// Lock requests resID in the given mode on behalf of owner (a node id).
// It returns the lock handle and Granted or Waiting. The lock block is
// allocated on the calling CPU.
func (d *Manager) Lock(c *machine.CPU, resID uint64, mode Mode, owner int) (arena.Addr, Status, error) {
	if mode >= numModes {
		return 0, Denied, fmt.Errorf("dlm: bad mode %d", mode)
	}
	l, err := d.lockCache.Get(c)
	if err != nil {
		return 0, Denied, err
	}
	b := d.bucketFor(resID)
	b.lk.Acquire(c)
	res := d.findResource(c, b, resID)
	if res == 0 {
		res, err = d.resCache.Get(c)
		if err != nil {
			b.lk.Release(c)
			d.lockCache.Put(c, l)
			return 0, Denied, err
		}
		d.resCreated.Add(1)
		// Queues and lock count arrive constructed (empty/zero); only
		// the identity and hash link are per-resource.
		d.put(c, res+rResID, resID)
		d.put(c, res+rHashNext, uint64(b.head))
		b.head = res
		c.Write(b.line)
	}
	d.put(c, l+lRes, res)
	d.put(c, l+lMode, uint64(mode))
	d.put(c, l+lOwner, uint64(owner))
	d.put(c, l+lPending, uint64(mode))
	d.put(c, res+rLockCount, d.get(c, res+rLockCount)+1)

	st := Waiting
	// Grant only when no one is already waiting (FIFO fairness) and the
	// mode is compatible with every granted lock.
	if d.get(c, res+rWaitHead) == 0 && d.grantable(c, res, mode, 0) {
		d.pushGrant(c, res, l)
		st = Granted
	} else {
		d.appendWait(c, res, l)
		d.waits.Add(1)
	}
	b.lk.Release(c)
	d.locks.Add(1)
	return l, st, nil
}

// Convert changes a granted lock's mode. Compatible conversions are
// immediate; incompatible ones move the lock to the head of the wait
// queue (conversions take priority over new requests) and complete via a
// Grant when possible.
func (d *Manager) Convert(c *machine.CPU, l arena.Addr, newMode Mode, out []Grant) (Status, []Grant) {
	if newMode >= numModes {
		return Denied, out
	}
	res := d.get(c, l+lRes)
	b := d.bucketFor(d.mem.Load64(res + rResID))
	b.lk.Acquire(c)
	if d.get(c, l+lState) != lsGranted {
		b.lk.Release(c)
		return Denied, out
	}
	d.converts.Add(1)
	oldMode := Mode(d.get(c, l+lMode))
	if d.grantable(c, res, newMode, l) {
		d.put(c, l+lMode, uint64(newMode))
		d.put(c, l+lPending, uint64(newMode))
		// A down-conversion can unblock waiters.
		if newMode < oldMode {
			out = d.promote(c, res, out)
		}
		b.lk.Release(c)
		return Granted, out
	}
	// Queue the conversion: drop the held mode (a simplification of the
	// VMS conversion queue, documented in DESIGN.md) and wait at the
	// front.
	d.removeFrom(c, res, l, rGrantHead, false)
	d.put(c, l+lPending, uint64(newMode))
	d.put(c, l+lState, lsWaiting)
	head := d.get(c, res+rWaitHead)
	d.put(c, l+lNext, head)
	d.put(c, res+rWaitHead, uint64(l))
	if head == 0 {
		d.put(c, res+rWaitTail, uint64(l))
	}
	// Releasing the held mode may itself unblock other waiters.
	out = d.promote(c, res, out)
	d.waits.Add(1)
	b.lk.Release(c)
	return Waiting, out
}

// promote grants waiters in FIFO order until the first incompatible one.
// Caller holds the bucket lock.
func (d *Manager) promote(c *machine.CPU, res arena.Addr, out []Grant) []Grant {
	for {
		l := d.get(c, res+rWaitHead)
		if l == 0 {
			return out
		}
		mode := Mode(d.get(c, l+lPending))
		if !d.grantable(c, res, mode, 0) {
			return out
		}
		next := d.get(c, l+lNext)
		d.put(c, res+rWaitHead, next)
		if next == 0 {
			d.put(c, res+rWaitTail, 0)
		}
		d.put(c, l+lMode, uint64(mode))
		d.pushGrant(c, res, l)
		out = append(out, Grant{Lock: l, Owner: int(d.get(c, l+lOwner))})
	}
}

// Unlock releases a lock (granted or waiting), frees its block on the
// calling CPU, grants any unblocked waiters (returned for delivery to
// their owners), and frees the resource when its last lock goes away.
func (d *Manager) Unlock(c *machine.CPU, l arena.Addr, out []Grant) []Grant {
	res := d.get(c, l+lRes)
	b := d.bucketFor(d.mem.Load64(res + rResID))
	b.lk.Acquire(c)
	if !d.removeFrom(c, res, l, rGrantHead, false) {
		if !d.removeFrom(c, res, l, rWaitHead, true) {
			panic(fmt.Sprintf("dlm: unlock of unknown lock %#x", l))
		}
	}
	count := d.get(c, res+rLockCount) - 1
	d.put(c, res+rLockCount, count)
	out = d.promote(c, res, out)

	var freeRes bool
	if count == 0 {
		// Unlink the resource from its hash chain.
		c.Read(b.line)
		resID := d.get(c, res+rResID)
		var prev arena.Addr
		for cur := b.head; cur != 0; cur = d.get(c, cur+rHashNext) {
			if cur == res {
				next := arena.Addr(d.get(c, cur+rHashNext))
				if prev == 0 {
					b.head = next
					c.Write(b.line)
				} else {
					d.put(c, prev+rHashNext, uint64(next))
				}
				freeRes = true
				break
			}
			prev = cur
		}
		if !freeRes {
			panic(fmt.Sprintf("dlm: resource %#x (id %d) not in hash chain", res, resID))
		}
	}
	b.lk.Release(c)

	d.lockCache.Put(c, l)
	if freeRes {
		// The departing last lock left both queues empty and the count
		// zero — exactly the constructed state the cache hands out.
		d.resCache.Put(c, res)
		d.resFreed.Add(1)
	}
	d.unlocks.Add(1)
	return out
}

// Granted reports whether the lock is currently granted. The owner polls
// under the bucket lock (a released lock may be granted concurrently by
// whichever CPU performed the unblocking release).
func (d *Manager) Granted(c *machine.CPU, l arena.Addr) bool {
	res := d.get(c, l+lRes)
	b := d.bucketFor(d.mem.Load64(res + rResID))
	b.lk.Acquire(c)
	st := d.get(c, l+lState)
	b.lk.Release(c)
	return st == lsGranted
}

// HeldMode returns the lock's current mode.
func (d *Manager) HeldMode(c *machine.CPU, l arena.Addr) Mode {
	res := d.get(c, l+lRes)
	b := d.bucketFor(d.mem.Load64(res + rResID))
	b.lk.Acquire(c)
	mode := Mode(d.get(c, l+lMode))
	b.lk.Release(c)
	return mode
}

// Stats is a counter snapshot.
type Stats struct {
	Locks      uint64
	Unlocks    uint64
	Converts   uint64
	Waits      uint64
	Aborts     uint64
	ResCreated uint64
	ResFreed   uint64
}

// Stats returns the manager's counters.
func (d *Manager) Stats() Stats {
	return Stats{
		Locks:      d.locks.Load(),
		Unlocks:    d.unlocks.Load(),
		Converts:   d.converts.Load(),
		Waits:      d.waits.Load(),
		Aborts:     d.aborts.Load(),
		ResCreated: d.resCreated.Load(),
		ResFreed:   d.resFreed.Load(),
	}
}
