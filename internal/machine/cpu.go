package machine

import "fmt"

// CPU is one simulated processor. In Sim mode every access and work charge
// advances its private virtual clock; in Native mode all hooks are no-ops
// and a CPU is merely a shard identity for the allocator's per-CPU state.
//
// A CPU handle must be driven by at most one goroutine at a time, exactly
// as a physical CPU executes one instruction stream. In Native mode the
// CPU's per-CPU section checks it: a second goroutine entering as owner
// while the first is inside panics (PerCPU).
type CPU struct {
	m    *Machine
	id   int
	node int
	sim  bool // the machine's Mode == Sim, read by every cost hook

	// plain is set while an access is nothing but its cache slot and
	// directory entry: the CPU runs in Sim mode with no TLB model and is
	// not tracing. read and write then settle it without access. New
	// sets it; StartTrace and StopTrace clear and restore it. One path
	// that tests the TLB and the trace on every access measured slower
	// end to end (EXPERIMENTS.md E42).
	plain bool

	clock int64

	// Seeded tie-break priority for the scheduler heap; 0 (compare by id)
	// unless schedule jitter is armed. See jitter.go.
	tiePri uint64

	// Direct-mapped cache: cache[line % CacheLines] holds the resident
	// line, or invalidLine. Both sizes are powers of two (machine.New
	// refuses anything else), so a slot index is a mask, not a division.
	cache []Line
	// Optional direct-mapped TLB over arena pages (Config.TLBEntries).
	tlb []uint64

	// Statistics.
	insns        uint64
	hits         uint64
	misses       uint64
	atomics      uint64
	tlbMisses    uint64
	remoteMisses uint64
	busWait      int64
	spinWait     int64
	restarts     uint64 // restartable sections aborted and re-run (percpu.go)
	casRetries   uint64 // lock-free CAS commits that had to retry

	// Optional per-access trace (Sim mode), used by the Analysis-section
	// experiment to show how the worst few off-chip accesses dominate
	// elapsed time.
	tracing bool
	trace   []TraceEvent
}

// TraceEvent records the cost of a single memory access while tracing.
type TraceEvent struct {
	Line   Line
	Kind   AccessKind
	Cycles int64 // cycles this access cost (0 for a free hit)
}

// AccessKind classifies a memory access.
type AccessKind uint8

const (
	// ReadAccess is a plain load.
	ReadAccess AccessKind = iota
	// WriteAccess is a plain store.
	WriteAccess
	// AtomicAccess is a bus-locked read-modify-write.
	AtomicAccess
)

// String returns a short name for the access kind.
func (k AccessKind) String() string {
	switch k {
	case ReadAccess:
		return "read"
	case WriteAccess:
		return "write"
	case AtomicAccess:
		return "atomic"
	}
	return fmt.Sprintf("AccessKind(%d)", uint8(k))
}

// ID returns the CPU number.
func (c *CPU) ID() int { return c.id }

// Node returns the NUMA node this CPU belongs to (0 on a single-node
// machine).
func (c *CPU) Node() int { return c.node }

// Machine returns the machine this CPU belongs to.
func (c *CPU) Machine() *Machine { return c.m }

// Now returns the CPU's virtual clock in cycles (Sim mode only; always 0
// in Native mode).
func (c *CPU) Now() int64 { return c.clock }

// Work charges n straight-line instructions to the CPU. Allocator fast
// paths charge the instruction budgets the paper reports (13 instructions
// for a cookie allocation, 35 for a standard one, and so on).
func (c *CPU) Work(n int64) {
	if !c.sim {
		return
	}
	c.insns += uint64(n)
	c.clock += n * CyclesPerInsn
}

// Idle advances the CPU's clock by n cycles without charging instructions
// (used to model waiting).
func (c *CPU) Idle(n int64) {
	if !c.sim {
		return
	}
	c.clock += n
}

// DisableIntr charges the cost of an interrupt disable/enable pair, the
// only "synchronization" the per-CPU caching layer needs.
func (c *CPU) DisableIntr() {
	if !c.sim {
		return
	}
	c.insns += 2
	c.clock += IntrCycles
}

// tlbCheck charges a TLB fill when the arena page holding line l is not
// resident. Synthetic metadata lines are exempt (they stand for state the
// kernel maps globally).
func (c *CPU) tlbCheck(l Line) {
	if c.tlb == nil || l&metaTag != 0 {
		return
	}
	page := uint64(l) >> c.m.pageShift
	slot := &c.tlb[page&uint64(len(c.tlb)-1)]
	if *slot != page {
		*slot = page
		c.tlbMisses++
		c.clock += TLBMissCycles
	}
}

// remoteFor reports whether a transfer of line l by this CPU must cross
// the inter-node interconnect: the line's home memory is on another
// node, or its current exclusive owner is a CPU on another node.
func (c *CPU) remoteFor(l Line, dir int8) bool {
	m := c.m
	if len(m.buses) == 1 {
		return false
	}
	if m.lineHome(l) != c.node {
		return true
	}
	return dir != ownerNone && int(dir) != c.id && m.cpus[dir].node != c.node
}

// access performs the cache/coherence accounting for one load or store
// of line l on a CPU that models its TLB or records a trace; read and
// write settle every other CPU's access themselves. rmw is the bus-locked
// read-modify-write's.
func (c *CPU) access(l Line, kind AccessKind) {
	c.tlbCheck(l)
	slot := &c.cache[uint64(l)&uint64(len(c.cache)-1)]
	dir := c.m.dirSlot(l)
	var cost int64
	if *slot == l && (*dir == int8(c.id) || kind == ReadAccess && *dir == ownerNone) {
		c.hits++
	} else {
		cost = c.miss(l, slot, dir, kind != ReadAccess)
	}
	if c.tracing {
		c.trace = append(c.trace, TraceEvent{Line: l, Kind: kind, Cycles: cost})
	}
}

// miss transfers line l into the cache slot slot over the bus and
// returns the cycles it cost; dir is l's directory entry. A load leaves
// a line another CPU held exclusively shared; a store (own) is a
// read-for-ownership, which takes it exclusively and invalidates the
// other copies.
func (c *CPU) miss(l Line, slot *Line, dir *int8, own bool) int64 {
	m := c.m
	c.misses++
	before := c.clock
	c.clock = m.busTxn(c, c.remoteFor(l, *dir))
	if own {
		*dir = int8(c.id)
	} else if *dir != ownerNone && *dir != int8(c.id) {
		*dir = ownerNone
	}
	*slot = l
	if m.profile != nil {
		m.noteProfile(l, false)
	}
	return c.clock - before
}

// Read charges a load of line l.
func (c *CPU) Read(l Line) {
	if c.sim {
		c.read(l)
	}
}

// read is Read's charge, out of line so that Read inlines to a mode test.
// On a plain CPU it settles the load itself: a hit — the slot holds l,
// and no other CPU owns it — is counted, anything else is a miss.
func (c *CPU) read(l Line) {
	c.insns++
	c.clock += CyclesPerInsn
	if !c.plain {
		c.access(l, ReadAccess)
		return
	}
	slot := &c.cache[uint64(l)&uint64(len(c.cache)-1)]
	dir := c.m.dirSlot(l)
	if *slot == l && (*dir == ownerNone || *dir == int8(c.id)) {
		c.hits++
		return
	}
	c.miss(l, slot, dir, false)
}

// Write charges a store to line l.
func (c *CPU) Write(l Line) {
	if c.sim {
		c.write(l)
	}
}

// write is Write's charge, out of line as read is. On a plain CPU a hit
// — the slot holds l, and c owns it — is counted, anything else is a
// miss.
func (c *CPU) write(l Line) {
	c.insns++
	c.clock += CyclesPerInsn
	if !c.plain {
		c.access(l, WriteAccess)
		return
	}
	slot := &c.cache[uint64(l)&uint64(len(c.cache)-1)]
	dir := c.m.dirSlot(l)
	if *slot == l && *dir == int8(c.id) {
		c.hits++
		return
	}
	c.miss(l, slot, dir, true)
}

// Atomic charges a bus-locked read-modify-write of line l.
func (c *CPU) Atomic(l Line) {
	if c.sim {
		c.rmw(l, c.m.cfg.AtomicCycles)
	}
}

// CAS charges a bus-locked compare-and-swap of line l — the commit
// instruction of the lock-free Treiber stacks. It is the same coherence
// transaction as Atomic but is charged at the CASCycles constant so the
// optimistic layer's cost model is calibrated independently of the
// spinlock's test-and-set.
func (c *CPU) CAS(l Line) {
	if c.sim {
		c.rmw(l, CASCycles)
	}
}

// rmw charges one bus-locked read-modify-write of line l plus extra
// cycles for the locked instruction. On this generation of hardware it
// is always a bus transaction, even when the line is owned, and it
// leaves the line exclusive to c.
func (c *CPU) rmw(l Line, extra int64) {
	c.insns++
	c.clock += CyclesPerInsn
	m := c.m
	c.tlbCheck(l)
	slot := &c.cache[uint64(l)&uint64(len(c.cache)-1)]
	dir := m.dirSlot(l)
	c.atomics++
	before := c.clock
	c.clock = m.busTxn(c, c.remoteFor(l, *dir)) + extra
	*dir = int8(c.id)
	*slot = l
	if m.profile != nil {
		m.noteProfile(l, true)
	}
	if c.tracing {
		c.trace = append(c.trace, TraceEvent{Line: l, Kind: AtomicAccess, Cycles: c.clock - before})
	}
}

// NoteCASRetry counts one failed lock-free commit attempt (the caller
// charges the retry's traffic itself via CAS/Read).
func (c *CPU) NoteCASRetry() { c.casRetries++ }

// ReadAddr charges a load of the arena address addr.
func (c *CPU) ReadAddr(addr uint64) {
	if c.sim {
		c.readAddr(addr)
	}
}

// readAddr is ReadAddr's charge, out of line so that ReadAddr inlines to
// a mode test.
func (c *CPU) readAddr(addr uint64) { c.read(c.m.LineOf(addr)) }

// WriteAddr charges a store to the arena address addr.
func (c *CPU) WriteAddr(addr uint64) {
	if c.sim {
		c.writeAddr(addr)
	}
}

// writeAddr is WriteAddr's charge, out of line as readAddr is.
func (c *CPU) writeAddr(addr uint64) { c.write(c.m.LineOf(addr)) }

// noteWait attributes a synchronization wait to the given line while
// tracing — the way a logic analyzer sees a spin: repeated accesses to
// the lock word accounting for the elapsed time.
func (c *CPU) noteWait(l Line, cycles int64) {
	if c.tracing && cycles > 0 {
		c.trace = append(c.trace, TraceEvent{Line: l, Kind: AtomicAccess, Cycles: cycles})
	}
}

// StartTrace begins recording per-access costs (Sim mode).
func (c *CPU) StartTrace() {
	c.tracing = true
	c.plain = false
	c.trace = c.trace[:0]
}

// StopTrace stops recording and returns the events captured since
// StartTrace. The returned slice is reused by the next StartTrace.
func (c *CPU) StopTrace() []TraceEvent {
	c.tracing = false
	c.plain = c.sim && c.tlb == nil
	return c.trace
}

// Stats is a snapshot of one CPU's counters.
type Stats struct {
	Cycles       int64
	Instructions uint64
	Hits         uint64
	Misses       uint64
	Atomics      uint64
	TLBMisses    uint64
	RemoteMisses uint64
	BusWait      int64
	SpinWait     int64
	Restarts     uint64
	CASRetries   uint64
}

// Stats returns the CPU's counters.
func (c *CPU) Stats() Stats {
	return Stats{
		Cycles:       c.clock,
		Instructions: c.insns,
		Hits:         c.hits,
		Misses:       c.misses,
		Atomics:      c.atomics,
		TLBMisses:    c.tlbMisses,
		RemoteMisses: c.remoteMisses,
		BusWait:      c.busWait,
		SpinWait:     c.spinWait,
		Restarts:     c.restarts,
		CASRetries:   c.casRetries,
	}
}

// ResetStats zeroes the CPU's counters but not its clock.
func (c *CPU) ResetStats() {
	c.insns, c.hits, c.misses, c.atomics, c.tlbMisses, c.remoteMisses = 0, 0, 0, 0, 0, 0
	c.busWait, c.spinWait = 0, 0
	c.restarts, c.casRetries = 0, 0
}
