package dlm

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

// The cluster layer distributes the lock manager across nodes (one per
// CPU): each resource has a master node (resID mod nodes) that runs all
// operations on it, and other nodes reach it with messages. Every message
// is a 256-byte kmem block allocated on the sending CPU and freed on the
// receiving CPU — the allocate-here-free-there pattern that drives the
// global layer and whose miss rates the paper's DLM benchmark reports.

// message kinds.
const (
	mkLockReq = iota + 1
	mkLockResp
	mkUnlockReq
	mkConvReq
	mkConvResp
	mkGrant
	mkAbort // a waiting lock was denied to break a deadlock
)

// message block field offsets (one 256-byte kmem block).
const (
	mNext        = 0
	mKind        = 8
	mArg         = 16 // resID (requests) or lock handle (unlock/convert)
	mMode        = 24
	mFrom        = 32
	mReqID       = 40
	mStatus      = 48
	mHandle      = 56
	msgObjSize   = 64
	msgBlockSize = 256
)

// CompletionKind distinguishes what a Completion reports.
type CompletionKind uint8

// Completion kinds.
const (
	// LockDone reports the outcome of a Lock request.
	LockDone CompletionKind = iota
	// ConvertDone reports the outcome of a Convert request.
	ConvertDone
	// GrantDelivered reports that a previously Waiting lock is granted.
	GrantDelivered
	// AbortDelivered reports that a previously Waiting lock was denied
	// by the deadlock detector; its handle is gone.
	AbortDelivered
)

// Completion is delivered to a node when one of its requests resolves.
type Completion struct {
	Kind   CompletionKind
	ReqID  uint64
	ResID  uint64
	Handle arena.Addr
	St     Status
}

// Cluster binds a Manager and its nodes.
type Cluster struct {
	mgr      *Manager
	al       *core.Allocator
	mem      *arena.Arena
	msgCache *objcache.Cache // "dlm:msg"
	nodes    []*Node
}

// Node is one cluster member, bound to one CPU.
type Node struct {
	cl *Cluster
	id int

	inboxLk *machine.SpinLock
	inHead  arena.Addr
	inTail  arena.Addr

	// Owner-CPU-only state.
	completions []Completion
	nextReq     uint64
	msgsSent    uint64
	msgsRecv    uint64
}

// NewCluster builds a cluster with one node per machine CPU.
func NewCluster(al *core.Allocator, nBuckets int) (*Cluster, error) {
	mgr, err := NewManager(al, nBuckets)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{mgr: mgr, al: al, mem: al.Machine().Mem()}
	// Messages stay 256-byte paper blocks; the 64-byte live object
	// leaves the cache seven distinct colors, so the inbox chains of
	// different nodes stop stacking their headers on the same lines.
	cl.msgCache, err = objcache.New(al.Machine(), al,
		"dlm:msg", msgObjSize, 8, nil, nil, objcache.Opts{MinBackSize: msgBlockSize})
	if err != nil {
		return nil, err
	}
	n := al.Machine().NumCPUs()
	for i := 0; i < n; i++ {
		cl.nodes = append(cl.nodes, &Node{
			cl:      cl,
			id:      i,
			inboxLk: machine.NewSpinLock(al.Machine()),
		})
	}
	return cl, nil
}

// Manager exposes the underlying resource store (for stats and tests).
func (cl *Cluster) Manager() *Manager { return cl.mgr }

// Node returns cluster member i.
func (cl *Cluster) Node(i int) *Node { return cl.nodes[i] }

// master returns the node that owns resID.
func (cl *Cluster) master(resID uint64) int { return int(resID % uint64(len(cl.nodes))) }

// --- message plumbing -----------------------------------------------------

func (cl *Cluster) allocMsg(c *machine.CPU) arena.Addr {
	msg, err := cl.msgCache.Get(c)
	if err != nil {
		panic(fmt.Sprintf("dlm: message allocation failed: %v (size the machine's memory for the workload)", err))
	}
	return msg
}

// send enqueues msg on node to's inbox.
func (cl *Cluster) send(c *machine.CPU, to int, msg arena.Addr) {
	n := cl.nodes[to]
	cl.mgr.put(c, msg+mNext, 0)
	n.inboxLk.Acquire(c)
	if n.inTail == 0 {
		n.inHead = msg
	} else {
		cl.mgr.put(c, n.inTail+mNext, uint64(msg))
	}
	n.inTail = msg
	n.inboxLk.Release(c)
}

// recv dequeues one inbox message (0 when empty). Owner CPU only.
func (n *Node) recv(c *machine.CPU) arena.Addr {
	n.inboxLk.Acquire(c)
	msg := n.inHead
	if msg != 0 {
		n.inHead = arena.Addr(n.cl.mgr.get(c, msg+mNext))
		if n.inHead == 0 {
			n.inTail = 0
		}
	}
	n.inboxLk.Release(c)
	return msg
}

// --- client operations ------------------------------------------------------

// Lock requests resID in mode. Local resources complete immediately (the
// Completion is queued right away); remote ones send a message. Returns
// the request id the eventual Completion will carry.
func (n *Node) Lock(c *machine.CPU, resID uint64, mode Mode) uint64 {
	n.nextReq++
	reqID := n.nextReq
	master := n.cl.master(resID)
	if master == n.id {
		h, st, err := n.cl.mgr.Lock(c, resID, mode, n.id)
		if err != nil {
			st, h = Denied, 0
		}
		n.completions = append(n.completions, Completion{
			Kind: LockDone, ReqID: reqID, ResID: resID, Handle: h, St: st,
		})
		return reqID
	}
	msg := n.cl.allocMsg(c)
	cl := n.cl
	cl.mgr.put(c, msg+mKind, mkLockReq)
	cl.mgr.put(c, msg+mArg, resID)
	cl.mgr.put(c, msg+mMode, uint64(mode))
	cl.mgr.put(c, msg+mFrom, uint64(n.id))
	cl.mgr.put(c, msg+mReqID, reqID)
	cl.send(c, master, msg)
	n.msgsSent++
	return reqID
}

// Unlock releases a lock on resID.
func (n *Node) Unlock(c *machine.CPU, h arena.Addr, resID uint64) {
	master := n.cl.master(resID)
	if master == n.id {
		grants := n.cl.mgr.Unlock(c, h, nil)
		n.deliver(c, grants)
		return
	}
	msg := n.cl.allocMsg(c)
	cl := n.cl
	cl.mgr.put(c, msg+mKind, mkUnlockReq)
	cl.mgr.put(c, msg+mHandle, uint64(h))
	cl.mgr.put(c, msg+mFrom, uint64(n.id))
	cl.send(c, master, msg)
	n.msgsSent++
}

// Convert requests a mode change on a granted lock.
func (n *Node) Convert(c *machine.CPU, h arena.Addr, resID uint64, newMode Mode) uint64 {
	n.nextReq++
	reqID := n.nextReq
	master := n.cl.master(resID)
	if master == n.id {
		st, grants := n.cl.mgr.Convert(c, h, newMode, nil)
		n.deliver(c, grants)
		n.completions = append(n.completions, Completion{
			Kind: ConvertDone, ReqID: reqID, ResID: resID, Handle: h, St: st,
		})
		return reqID
	}
	msg := n.cl.allocMsg(c)
	cl := n.cl
	cl.mgr.put(c, msg+mKind, mkConvReq)
	cl.mgr.put(c, msg+mHandle, uint64(h))
	cl.mgr.put(c, msg+mArg, resID)
	cl.mgr.put(c, msg+mMode, uint64(newMode))
	cl.mgr.put(c, msg+mFrom, uint64(n.id))
	cl.mgr.put(c, msg+mReqID, reqID)
	cl.send(c, master, msg)
	n.msgsSent++
	return reqID
}

// deliver routes grant events: local owners get a Completion, remote ones
// a grant message.
func (n *Node) deliver(c *machine.CPU, grants []Grant) {
	for _, g := range grants {
		if g.Owner == n.id {
			n.completions = append(n.completions, Completion{
				Kind: GrantDelivered, Handle: g.Lock, St: Granted,
			})
			continue
		}
		msg := n.cl.allocMsg(c)
		n.cl.mgr.put(c, msg+mKind, mkGrant)
		n.cl.mgr.put(c, msg+mHandle, uint64(g.Lock))
		n.cl.send(c, g.Owner, msg)
		n.msgsSent++
	}
}

// Step processes up to max inbox messages on the node's CPU, freeing each
// received message locally. It returns the number processed.
func (n *Node) Step(c *machine.CPU, max int) int {
	cl := n.cl
	done := 0
	var grantBuf []Grant
	for done < max {
		msg := n.recv(c)
		if msg == 0 {
			break
		}
		n.msgsRecv++
		kind := cl.mgr.get(c, msg+mKind)
		switch kind {
		case mkLockReq:
			resID := cl.mgr.get(c, msg+mArg)
			mode := Mode(cl.mgr.get(c, msg+mMode))
			from := int(cl.mgr.get(c, msg+mFrom))
			reqID := cl.mgr.get(c, msg+mReqID)
			h, st, err := cl.mgr.Lock(c, resID, mode, from)
			if err != nil {
				st, h = Denied, 0
			}
			resp := cl.allocMsg(c)
			cl.mgr.put(c, resp+mKind, mkLockResp)
			cl.mgr.put(c, resp+mArg, resID)
			cl.mgr.put(c, resp+mReqID, reqID)
			cl.mgr.put(c, resp+mStatus, uint64(st))
			cl.mgr.put(c, resp+mHandle, uint64(h))
			cl.send(c, from, resp)
			n.msgsSent++
		case mkLockResp:
			n.completions = append(n.completions, Completion{
				Kind:   LockDone,
				ReqID:  cl.mgr.get(c, msg+mReqID),
				ResID:  cl.mgr.get(c, msg+mArg),
				Handle: arena.Addr(cl.mgr.get(c, msg+mHandle)),
				St:     Status(cl.mgr.get(c, msg+mStatus)),
			})
		case mkUnlockReq:
			h := arena.Addr(cl.mgr.get(c, msg+mHandle))
			grantBuf = cl.mgr.Unlock(c, h, grantBuf[:0])
			n.deliver(c, grantBuf)
		case mkConvReq:
			h := arena.Addr(cl.mgr.get(c, msg+mHandle))
			resID := cl.mgr.get(c, msg+mArg)
			mode := Mode(cl.mgr.get(c, msg+mMode))
			from := int(cl.mgr.get(c, msg+mFrom))
			reqID := cl.mgr.get(c, msg+mReqID)
			var st Status
			st, grantBuf = cl.mgr.Convert(c, h, mode, grantBuf[:0])
			n.deliver(c, grantBuf)
			resp := cl.allocMsg(c)
			cl.mgr.put(c, resp+mKind, mkConvResp)
			cl.mgr.put(c, resp+mArg, resID)
			cl.mgr.put(c, resp+mReqID, reqID)
			cl.mgr.put(c, resp+mStatus, uint64(st))
			cl.mgr.put(c, resp+mHandle, uint64(h))
			cl.send(c, from, resp)
			n.msgsSent++
		case mkConvResp:
			n.completions = append(n.completions, Completion{
				Kind:   ConvertDone,
				ReqID:  cl.mgr.get(c, msg+mReqID),
				ResID:  cl.mgr.get(c, msg+mArg),
				Handle: arena.Addr(cl.mgr.get(c, msg+mHandle)),
				St:     Status(cl.mgr.get(c, msg+mStatus)),
			})
		case mkGrant:
			n.completions = append(n.completions, Completion{
				Kind:   GrantDelivered,
				Handle: arena.Addr(cl.mgr.get(c, msg+mHandle)),
				St:     Granted,
			})
		case mkAbort:
			h := arena.Addr(cl.mgr.get(c, msg+mHandle))
			// The block stayed allocated until this acknowledgement, so
			// the handle cannot have been recycled; free it here, on the
			// owner's CPU.
			cl.mgr.ReleaseDenied(c, h)
			n.completions = append(n.completions, Completion{
				Kind:   AbortDelivered,
				Handle: h,
				St:     Denied,
			})
		default:
			panic(fmt.Sprintf("dlm: bad message kind %d", kind))
		}
		cl.msgCache.Put(c, msg)
		done++
	}
	return done
}

// BreakDeadlocks runs one deadlock search from this node and, when a
// cycle is found, aborts the victim and notifies its owner. A designated
// node calls it periodically (as the VMS lock manager's deadlock search
// ran after a wait timeout). Returns the number of cycles broken (0 or 1).
func (n *Node) BreakDeadlocks(c *machine.CPU) int {
	cl := n.cl
	dl := cl.mgr.FindDeadlock(c)
	if dl == nil {
		return 0
	}
	grants, ok := cl.mgr.AbortWaiter(c, dl.Victim, nil)
	if !ok {
		// The cycle resolved between detection and abort (the victim
		// was granted); nothing to do.
		return 0
	}
	n.deliver(c, grants)
	if dl.VictimOwner == n.id {
		cl.mgr.ReleaseDenied(c, dl.Victim)
		n.completions = append(n.completions, Completion{
			Kind: AbortDelivered, Handle: dl.Victim, St: Denied,
		})
	} else {
		msg := cl.allocMsg(c)
		cl.mgr.put(c, msg+mKind, mkAbort)
		cl.mgr.put(c, msg+mHandle, uint64(dl.Victim))
		cl.send(c, dl.VictimOwner, msg)
		n.msgsSent++
	}
	return 1
}

// TakeCompletions returns and clears the node's pending completions.
// Owner CPU only.
func (n *Node) TakeCompletions() []Completion {
	out := n.completions
	n.completions = nil
	return out
}

// NodeStats reports per-node message counts.
type NodeStats struct {
	MsgsSent uint64
	MsgsRecv uint64
}

// Stats returns the node's counters. Owner CPU only.
func (n *Node) Stats() NodeStats {
	return NodeStats{MsgsSent: n.msgsSent, MsgsRecv: n.msgsRecv}
}
