//go:build linux && !race

package arena

import (
	"runtime"
	"sync"
	"syscall"
)

// An arena's bytes are demand-zero anonymous memory mapped outside the
// Go heap, so only the pages a simulation touches become resident on the
// host, as a kernel maps the pages of its reserved address space on first
// use. A heap slice would not do: Go zeroes a reused heap span in full,
// so every arena after a process's first would be resident end to end.
//
// Nothing is ever unmapped. When an arena becomes unreachable, its
// finalizer gives the pages back with MADV_DONTNEED and files the mapping
// in a free list by size for the next New of that size. An access through
// a dead arena therefore reads zeros or a later arena's bytes but can
// never fault, which spares Load64 and Store64 a runtime.KeepAlive that
// would cost them their inlining.
//
// The GC cannot see mapped bytes, so it would let dead arenas pile up
// resident between cycles: New collects once the arenas not yet
// finalized hold more than gcBound bytes.

// gcBound is the most mapped bytes New lets arenas not yet finalized
// hold before it runs the GC to finalize the dead ones.
const gcBound = 1 << 30

var hosts struct {
	mu   sync.Mutex
	free map[uint64][][]byte // released mappings by size
	held uint64              // bytes of arenas not yet finalized
}

func newArena(size uint64) *Arena {
	hosts.mu.Lock()
	if hosts.held+size > gcBound {
		hosts.mu.Unlock()
		runtime.GC()
		hosts.mu.Lock()
	}
	hosts.held += size
	var mem []byte
	if l := hosts.free[size]; len(l) > 0 {
		mem, hosts.free[size] = l[len(l)-1], l[:len(l)-1]
	}
	hosts.mu.Unlock()
	if mem == nil {
		var err error
		mem, err = syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
		if err != nil {
			panic("arena: map " + err.Error())
		}
	}
	a := &Arena{mem: mem}
	runtime.SetFinalizer(a, release)
	return a
}

// release returns a dead arena's pages to the host and files its mapping
// for reuse.
func release(a *Arena) {
	if err := syscall.Madvise(a.mem, syscall.MADV_DONTNEED); err != nil {
		panic("arena: release " + err.Error())
	}
	size := uint64(len(a.mem))
	hosts.mu.Lock()
	if hosts.free == nil {
		hosts.free = make(map[uint64][][]byte)
	}
	hosts.free[size] = append(hosts.free[size], a.mem)
	hosts.held -= size
	hosts.mu.Unlock()
}
