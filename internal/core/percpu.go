package core

import (
	"unsafe"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
	"kmem/internal/machine"
)

// pcpu is one per-CPU, per-size-class cache: the split freelist of the
// paper's Figure 2. Blocks are normally allocated from and freed to main;
// aux holds a full target-sized list so that exchanges with the global
// layer move whole lists rather than individual blocks. A CPU never
// touches another CPU's caches on the common path, "removing the need for
// any synchronization primitives (other than the disabling of
// interrupts)".
//
// The trailing pad makes a pcpu a whole number of host lines, and a
// pcpu holds no pointer, so a row a.percpu[cpu] is a newRow: it starts
// and ends on a host line, and on real threads two CPUs' caches never
// share one (TestPerCPURowLayout). The pad is host layout only; the Sim
// line of a cache is its line field.
type pcpu struct {
	pcpuState
	_ [(machine.HostLineBytes - unsafe.Sizeof(pcpuState{})%machine.HostLineBytes) % machine.HostLineBytes]byte
}

// pcpuState is a pcpu's live fields.
type pcpuState struct {
	main blocklist.List
	aux  blocklist.List
	line machine.Line // the cache line holding this cache's state

	// ev tallies this cache's slice of the event spine (EvAlloc, EvFree,
	// EvCPURefill, EvCPUSpill), written only inside the owner's critical
	// section.
	ev eventCounts

	// mixed clears the cache's node-purity. Remote frees stage in the
	// shards and never enter main/aux, and home refills carry only home
	// blocks, so main/aux spill whole to the CPU's own node's pool
	// (spillHome) — until a refill stolen from another node lands, which
	// sets mixed; a home refill into an empty cache or a drain resets it.
	// Written inside the critical section only.
	mixed bool

	// memoVmblk/memoHome are the 1-entry home-lookup memo: the vmblk
	// index of the last block this cache classified on the sharded free
	// path and that vmblk's home node. A block's 4 MB vmblk determines
	// its home and a vmblk's home never changes, so consecutive frees
	// within one vmblk answer "local or remote?" with a compare
	// (insnHomeMemo) instead of a charged dope-vector lookup.
	// memoVmblk is -1 until the first miss fills it.
	memoVmblk int64
	memoHome  int8
}

// allocFast attempts the common-case allocation: pop from main, moving
// aux to main if main is empty. The caller is inside the CPU's critical
// section.
// Instruction accounting (cookie interface totals 13, per the paper):
// cli/sti = 2, read cache state = 1, pop link = 1, write cache state = 1,
// residual straight-line work = 8.
func (a *Allocator) allocFast(c *machine.CPU, pc *pcpu) (arena.Addr, bool) {
	c.Read(pc.line)
	if pc.main.Empty() {
		if pc.aux.Empty() {
			return arena.NilAddr, false
		}
		// Constant-time whole-list move: main <- aux.
		pc.main = pc.aux.Take()
		c.Work(2)
	}
	b := pc.main.Pop(c, a.mem)
	pc.ev[EvAlloc]++
	c.Write(pc.line)
	c.Work(insnCookieAllocResidual)
	return b, true
}

// freeFast performs the common-case free: push onto main; when main is
// full, spill aux (if any) for return to the global layer and rotate
// main into aux. The returned list, when non-empty, must be handed to the
// global layer by the caller after leaving the CPU's critical section,
// which the caller is inside.
func (a *Allocator) freeFast(c *machine.CPU, pc *pcpu, target int, b arena.Addr) blocklist.List {
	c.Read(pc.line)
	var spill blocklist.List
	if pc.main.Len() >= target {
		if !pc.aux.Empty() {
			spill = pc.aux.Take()
			pc.ev[EvCPUSpill]++
		}
		pc.aux = pc.main.Take()
		c.Work(2)
	}
	pc.main.Push(c, a.mem, b)
	pc.ev[EvFree]++
	c.Write(pc.line)
	c.Work(insnCookieFreeResidual)
	return spill
}

// freeFastSingle implements ablation A2: the same cache capacity but a
// single freelist exchanging blocks with the global layer one at a time.
// Without the split-list hysteresis, a workload oscillating at the
// cache-size boundary hits the global lock on nearly every operation.
// Its allocation is allocFast's: aux stays empty, so a miss reads the
// cache state and finds main empty, as the single list's would.
func (a *Allocator) freeFastSingle(c *machine.CPU, pc *pcpu, target int, b arena.Addr) blocklist.List {
	c.Read(pc.line)
	var spill blocklist.List
	if pc.main.Len() >= 2*target {
		// Return a single block to the global layer.
		spill.Push(c, a.mem, pc.main.Pop(c, a.mem))
		pc.ev[EvCPUSpill]++
	}
	pc.main.Push(c, a.mem, b)
	pc.ev[EvFree]++
	c.Write(pc.line)
	c.Work(insnCookieFreeResidual)
	return spill
}

// freeShard is the sharded remote-free path: push block b (homed on a
// node other than the executing CPU's) onto that node's shard sh of
// cache pc (Allocator.shards). When the shard reaches target blocks it
// is taken whole for the caller to flush to the home node's global pool
// in one batched putList after leaving the critical section. Charging
// mirrors freeFast: read cache state, push link, write cache state,
// residual straight-line work, plus the constant-time whole-list take
// on a flush. The caller is inside the CPU's critical section.
func (a *Allocator) freeShard(c *machine.CPU, pc *pcpu, sh *blocklist.List, target int, b arena.Addr) blocklist.List {
	c.Read(pc.line)
	sh.Push(c, a.mem, b)
	pc.ev[EvFree]++
	c.Write(pc.line)
	c.Work(insnCookieFreeResidual)
	var flush blocklist.List
	if sh.Len() >= target {
		flush = sh.Take()
		pc.ev[EvShardFlush]++
		c.Work(2)
	}
	return flush
}

// takeAll empties both halves of the cache, returning the blocks for the
// global layer. Used by cache drains; caller is inside the critical
// section.
func (pc *pcpu) takeAll(c *machine.CPU) (blocklist.List, blocklist.List) {
	c.Read(pc.line)
	m := pc.main.Take()
	x := pc.aux.Take()
	c.Write(pc.line)
	return m, x
}

// takeShards empties the cache's remote shards (Allocator.shardsOf),
// returning the staged lists indexed by home node (nil when the cache
// has no shards or nothing is staged). Each returned list is already
// partitioned by home, so drains hand them straight to the home pools
// without spill's per-block lookups. Caller is inside the critical
// section.
func (pc *pcpu) takeShards(c *machine.CPU, shards []blocklist.List) []blocklist.List {
	var out []blocklist.List
	for n := range shards {
		if shards[n].Empty() {
			continue
		}
		if out == nil {
			out = make([]blocklist.List, len(shards))
		}
		out[n] = shards[n].Take()
		pc.ev[EvShardFlush]++
		c.Work(2)
	}
	if out != nil {
		c.Write(pc.line)
	}
	return out
}

// held reports the number of blocks cached, including blocks staged in
// the cache's remote shards; caller is inside the critical section.
func (pc *pcpu) held(shards []blocklist.List) int {
	n := pc.main.Len() + pc.aux.Len()
	for i := range shards {
		n += shards[i].Len()
	}
	return n
}

// newRow allocates one CPU's row of n elements of a pointer-free T whose
// size is a whole number of host lines or divides one. The row is padded
// to whole lines and to at least 512 bytes: the Go heap puts such a
// pointer-free object on a 64-byte boundary with nothing before it, so
// the row starts and ends on a host line.
func newRow[T any](n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	per := max(1, machine.HostLineBytes/size) // elements per line
	total := max((n+per-1)/per*per, (512+size-1)/size)
	return make([]T, total)[:n]
}
