// Package machine provides the shared-memory multiprocessor substrate the
// allocators run on.
//
// The paper's evaluation platform was a Sequent Symmetry 2000 — up to 26
// 50 MHz 80486 CPUs on a shared bus — instrumented with hardware monitors
// and a logic analyzer. Its results are driven by counts of instructions,
// cache-line transfers, atomic (bus-locking) operations and spinlock
// contention, not by anything host-specific. This package therefore models
// exactly those quantities:
//
//   - Each simulated CPU has its own virtual cycle clock and a
//     direct-mapped cache of CacheLines lines.
//   - A coherence directory tracks line ownership; reads of lines owned
//     exclusively elsewhere and writes to lines not owned exclusively are
//     misses that cross the shared bus.
//   - The bus is a single resource with per-transaction occupancy, so
//     heavy miss or spin traffic from one CPU delays every other CPU —
//     the effect that flattens the lock-based allocators in Figures 7/8.
//   - Spinlocks model test-and-test-and-set acquisition: a contended
//     acquire waits for the holder's release and injects retry traffic
//     onto the bus.
//
// The simulation is entirely single-goroutine and deterministic: virtual
// CPUs are scheduled one operation at a time in increasing virtual-clock
// order (a conservative discrete-event model).
//
// The same package also offers a native mode in which every cost hook is a
// no-op and synchronisation is real: a per-CPU critical section (PerCPU)
// is a claim word over atomics under either Sim protocol, and only a
// SpinLock is a sync.Mutex. The identical allocator code then runs as an
// ordinary concurrent Go library, which lets the test suite exercise it
// with real goroutines under the race detector.
package machine

import (
	"fmt"
	"math/bits"

	"kmem/internal/arena"
	"kmem/internal/physmem"
)

// Mode selects between the deterministic simulator and native execution.
type Mode int

const (
	// Sim runs virtual CPUs under the discrete-event cost model.
	Sim Mode = iota
	// Native runs real goroutines with all cost hooks disabled.
	Native
)

// MaxCPUs is the largest supported CPU count (the coherence directory
// uses an 8-bit owner field; the paper's machine had 26 CPUs).
const MaxCPUs = 64

// The machine's calibration: the paper's Symmetry 2000, with 50 MHz 80486
// CPUs, 32-byte lines, an 8 KB on-chip cache and a VM system whose page
// mapping cost dwarfs a fast-path allocation. No experiment varies these;
// the costs some do vary are Config fields.
const (
	// HzMHz is the CPU clock rate in MHz, used only to convert cycle
	// counts to seconds when reporting results.
	HzMHz = 50
	// LineShift is log2 of the cache line size (32-byte lines, as on the
	// i486 generation).
	LineShift = 5
	// CacheLines is the number of lines in each CPU's direct-mapped cache
	// (8 KB), a power of two.
	CacheLines = 256

	CyclesPerInsn  int64 = 1    // cost of one straight-line instruction
	HitCycles      int64 = 0    // extra cost of a cache hit: none, so a hit is not charged
	TLBMissCycles  int64 = 28   // page-table walk cost when TLBEntries > 0
	IntrCycles     int64 = 8    // cost of an interrupt disable/enable pair
	SpinRetryGap   int64 = 50   // cycles between spin retries on a held lock
	PageMapCycles  int64 = 1600 // VM-system cost to map one physical page
	PageZeroCycles int64 = 1024 // cost to zero a freshly mapped page

	// Atomic-op costs of the optimistic-concurrency fast paths
	// (restartable sequences, percpu.go, and the lock-free Treiber stacks
	// in the allocator's global layer). A CAS is the same bus-locked
	// read-modify-write transaction as AtomicCycles models; it has its
	// own constant so the lock-free layer's commit instruction is
	// calibrated independently of the spinlock's test-and-set. The commit
	// store of a restartable sequence is the cheap one: a plain store to
	// a line the CPU already owns, plus the abort-ip window check — this
	// is what replaces the interrupt-disable charge (2 insns + IntrCycles)
	// on the per-CPU fast path.
	CASCycles     int64 = 40 // bus-locked compare-and-swap (lock-free stack commit)
	FenceCycles   int64 = 12 // store fence draining the write buffer
	CommitCycles  int64 = 2  // rseq commit: single store to an owned line + ip check
	RestartCycles int64 = 80 // rseq abort: vector to the abort handler + re-entry

	// RemoteMissCycles is the extra stall when a line transfer crosses
	// nodes (Nodes > 1).
	RemoteMissCycles int64 = 60
)

// Config describes the simulated machine: its shape and the costs the
// experiments vary. The defaults returned by DefaultConfig approximate
// the paper's Symmetry 2000.
type Config struct {
	Mode    Mode
	NumCPUs int

	// Nodes is the number of NUMA nodes. CPUs are assigned to nodes in
	// contiguous blocks (cpu*Nodes/NumCPUs); each node has its own local
	// bus, and the nodes are joined by an interconnect with its own
	// occupancy and latency. The default (0 or 1) is a single node whose
	// lone bus behaves exactly like the classic shared-bus Symmetry model.
	Nodes int

	// MemBytes is the size of the kernel virtual address arena.
	MemBytes uint64
	// PhysPages is the number of physical pages available for mapping.
	PhysPages int64
	// PageBytes is the machine page size.
	PageBytes uint64

	// TLBEntries enables a direct-mapped per-CPU TLB over arena pages
	// when non-zero (must then be a power of two). The paper's footnote
	// notes "variations in the number of TLB misses" as a secondary
	// effect; the model is off by default to keep the calibrated
	// figures primary.
	TLBEntries int

	// Bus costs, varied by the E8 projection (a widening CPU/memory gap).
	MissCycles   int64 // stall cycles for a line transfer across the bus
	BusCycles    int64 // bus occupancy per transaction
	AtomicCycles int64 // extra cost of a bus-locked read-modify-write

	// InterconnectCycles is the interconnect occupancy per remote
	// transaction (Nodes > 1), varied by the topology and replay sweeps.
	InterconnectCycles int64
}

// DefaultConfig returns a configuration approximating the paper's test
// machine: a 64 MB arena over 2048 pages of 4 KB, and a shared bus where
// a line transfer costs tens of CPU cycles.
func DefaultConfig() Config {
	return Config{
		Mode:      Sim,
		NumCPUs:   1,
		Nodes:     1,
		MemBytes:  64 << 20,
		PhysPages: 2048,
		PageBytes: 4096,

		MissCycles:   40,
		BusCycles:    16,
		AtomicCycles: 40,

		InterconnectCycles: 24,
	}
}

// Machine binds CPUs, memory, the coherence directory and the bus into
// one simulated system.
type Machine struct {
	cfg  Config
	mem  *arena.Arena
	phys *physmem.Pool
	cpus []CPU

	// Coherence directory: owner CPU per line, or ownerNone when the
	// line is unowned/shared. Arena lines are indexed directly; metadata
	// lines (for Go-struct allocator state) are indexed in metaDir.
	arenaDir []int8
	metaDir  []int8
	nextMeta uint64

	// Home node per line: metadata lines are homed where they are
	// created (metaHome, parallel to metaDir); arena lines inherit the
	// home of their page (pageHome, registered by the vmblk layer when a
	// vmblk is carved; unregistered pages default to node 0).
	metaHome []int8
	pageHome []int8
	// pageShift turns an arena line into its page: lines are
	// addr>>LineShift, pages addr>>log2(PageBytes).
	pageShift uint

	// Per-node local buses plus the inter-node interconnect, each with
	// its history of recent occupancy intervals (intervals.go): operations
	// execute in virtual-clock order but run to completion, so a logically
	// earlier transaction may be simulated after a later one. See busTxn.
	// With Nodes=1, buses[0] reproduces the classic single shared bus
	// cycle for cycle.
	buses []busState
	ic    busState

	// Optional per-line off-chip traffic attribution (see profile.go).
	profile   map[Line]*LineStats
	lineNames map[Line]string

	// Optional seeded schedule perturbation and schedule hashing
	// (see jitter.go). jit == nil means the scheduler is byte-identical
	// to the unjittered model.
	jit         *jitter
	schedHashOn bool
	schedHash   uint64
}

const ownerNone = int8(-1)

// Line identifies one cache line of simulated state. Arena lines are
// addr>>LineShift; metadata lines (Go-struct state such as freelist heads
// and lock words) are tagged with the high bit.
type Line uint64

const metaTag Line = 1 << 63

// ConfigError is a Config no machine can be built from. New panics with
// one; code that builds a machine from outside input (kmem.NewSystem, a
// kmembench flag) calls Validate first, or recovers exactly this type,
// and reports it as an ordinary error.
type ConfigError struct{ msg string }

func (e *ConfigError) Error() string { return e.msg }

// Validate reports, as a *ConfigError, the first reason New would refuse
// cfg; nil if New accepts it.
func (cfg Config) Validate() error {
	var msg string
	switch {
	case cfg.NumCPUs < 1 || cfg.NumCPUs > MaxCPUs:
		msg = fmt.Sprintf("machine: NumCPUs %d out of range [1,%d]", cfg.NumCPUs, MaxCPUs)
	case cfg.Nodes < 0 || cfg.Nodes > cfg.NumCPUs: // 0 selects the single-bus machine
		msg = fmt.Sprintf("machine: Nodes %d out of range [1,%d]", cfg.Nodes, cfg.NumCPUs)
	case cfg.TLBEntries < 0 || cfg.TLBEntries&(cfg.TLBEntries-1) != 0:
		msg = fmt.Sprintf("machine: TLBEntries %d not a power of two", cfg.TLBEntries)
	case cfg.PageBytes&(cfg.PageBytes-1) != 0 || cfg.PageBytes < 1<<LineShift:
		msg = fmt.Sprintf("machine: PageBytes %d not a power of two holding at least one %d-byte line", cfg.PageBytes, 1<<LineShift)
	case cfg.MemBytes%cfg.PageBytes != 0:
		msg = "machine: MemBytes not a multiple of PageBytes"
	default:
		return nil
	}
	return &ConfigError{msg}
}

// New constructs a machine from cfg; a cfg that fails Validate panics
// with its *ConfigError.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.Nodes = max(cfg.Nodes, 1)
	m := &Machine{
		cfg:  cfg,
		mem:  arena.New(cfg.MemBytes),
		phys: physmem.NewPool(cfg.PhysPages),

		pageShift: uint(bits.TrailingZeros64(cfg.PageBytes)) - LineShift,
	}
	if cfg.Mode == Sim {
		nLines := cfg.MemBytes >> LineShift
		m.arenaDir = make([]int8, nLines)
		for i := range m.arenaDir {
			m.arenaDir[i] = ownerNone
		}
		m.pageHome = make([]int8, cfg.MemBytes/cfg.PageBytes)
	}
	m.buses = make([]busState, cfg.Nodes)
	for i := range m.buses {
		m.buses[i] = newBusState()
	}
	m.ic = newBusState()
	m.cpus = make([]CPU, cfg.NumCPUs)
	for i := range m.cpus {
		c := &m.cpus[i]
		c.m = m
		c.id = i
		c.sim = cfg.Mode == Sim
		c.node = i * cfg.Nodes / cfg.NumCPUs
		if cfg.Mode == Sim {
			c.cache = make([]Line, CacheLines)
			for j := range c.cache {
				c.cache[j] = invalidLine
			}
			if cfg.TLBEntries > 0 {
				c.tlb = make([]uint64, cfg.TLBEntries)
				for j := range c.tlb {
					c.tlb[j] = ^uint64(0)
				}
			}
		}
	}
	return m
}

// invalidLine marks an empty direct-mapped cache slot. Line 0 of the
// arena is valid, so a distinct sentinel is required.
const invalidLine = Line(^uint64(0) >> 1)

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Mem returns the virtual-address arena.
func (m *Machine) Mem() *arena.Arena { return m.mem }

// Phys returns the physical page pool.
func (m *Machine) Phys() *physmem.Pool { return m.phys }

// NumCPUs returns the number of CPUs.
func (m *Machine) NumCPUs() int { return m.cfg.NumCPUs }

// NumNodes returns the number of NUMA nodes (1 for the classic
// single-bus machine).
func (m *Machine) NumNodes() int { return len(m.buses) }

// NodeOf returns the NUMA node CPU i belongs to. CPUs are assigned in
// contiguous blocks so CPUs of one node share a local bus.
func (m *Machine) NodeOf(cpu int) int { return cpu * len(m.buses) / m.cfg.NumCPUs }

// CPU returns the handle for CPU i.
func (m *Machine) CPU(i int) *CPU { return &m.cpus[i] }

// Sim reports whether the machine runs under the cost model.
func (m *Machine) Sim() bool { return m.cfg.Mode == Sim }

// NewMetaLine reserves a fresh metadata cache line for a piece of
// allocator state held in Go structs (a lock word, a freelist head, a
// counter). Each distinct piece of frequently written shared state should
// have its own line, mirroring the cache-line padding a kernel would use.
//
// NewMetaLine is meant for initialization time and is not safe for
// concurrent use.
func (m *Machine) NewMetaLine() Line { return m.NewMetaLineOn(0) }

// NewMetaLineOn reserves a fresh metadata cache line homed on the given
// NUMA node, so accesses from other nodes pay the interconnect. With a
// single node it is identical to NewMetaLine.
func (m *Machine) NewMetaLineOn(node int) Line {
	if node < 0 || node >= len(m.buses) {
		panic(fmt.Sprintf("machine: NewMetaLineOn node %d out of range [0,%d)", node, len(m.buses)))
	}
	id := m.nextMeta
	m.nextMeta++
	if m.cfg.Mode == Sim {
		m.metaDir = append(m.metaDir, ownerNone)
		m.metaHome = append(m.metaHome, int8(node))
	}
	return metaTag | Line(id)
}

// SetPageHomeRange assigns the home node of n consecutive arena pages
// starting at firstPage. The vmblk layer calls it when a vmblk is carved,
// so every line of the vmblk's pages is homed on the vmblk's node.
func (m *Machine) SetPageHomeRange(firstPage int64, n int64, node int) {
	if m.pageHome == nil {
		return
	}
	if node < 0 || node >= len(m.buses) {
		panic(fmt.Sprintf("machine: SetPageHomeRange node %d out of range [0,%d)", node, len(m.buses)))
	}
	for i := firstPage; i < firstPage+n; i++ {
		m.pageHome[i] = int8(node)
	}
}

// lineHome returns the home node of line l.
func (m *Machine) lineHome(l Line) int {
	if l&metaTag != 0 {
		return int(m.metaHome[l&^metaTag])
	}
	return int(m.pageHome[uint64(l)>>m.pageShift])
}

// LineOf returns the cache line holding the arena address addr.
func (m *Machine) LineOf(addr arena.Addr) Line {
	return Line(addr >> LineShift)
}

// dirSlot returns a pointer to the directory entry for line l.
func (m *Machine) dirSlot(l Line) *int8 {
	if l&metaTag != 0 {
		return &m.metaDir[l&^metaTag]
	}
	return &m.arenaDir[l]
}

// busHistory is how many bus (or interconnect) occupancy intervals are
// remembered; bus holds are BusCycles long, so only transactions from
// operations executing at nearby virtual times can overlap a new one.
const busHistory = 64

// busState is one arbitrated transfer resource — a node-local bus or the
// inter-node interconnect: its recent occupancy and a transaction count.
type busState struct {
	intervals
	txns uint64
}

func newBusState() busState { return busState{intervals: newIntervals(busHistory)} }

// busTxn performs one bus transaction for CPU c: the transaction starts
// when the CPU, its node's local bus and — for a remote transaction —
// the interconnect are all ready (chasing any recorded occupancy
// intervals, i.e. queueing behind them), occupies the local bus for
// BusCycles (and the interconnect for InterconnectCycles), and stalls
// the CPU for MissCycles (plus RemoteMissCycles when remote) in total.
func (m *Machine) busTxn(c *CPU, remote bool) int64 {
	b := &m.buses[c.node]
	start := b.chase(c.clock)
	if remote {
		start = m.ic.chase(start)
	}
	if start > c.clock {
		c.busWait += start - c.clock
	}
	b.occupy(start, start+m.cfg.BusCycles)
	b.txns++
	if remote {
		m.ic.occupy(start, start+m.cfg.InterconnectCycles)
		m.ic.txns++
		c.remoteMisses++
		return start + m.cfg.MissCycles + RemoteMissCycles
	}
	return start + m.cfg.MissCycles
}

// BusTransactions returns the cumulative number of bus transactions,
// summed over every node's local bus.
func (m *Machine) BusTransactions() uint64 {
	var n uint64
	for i := range m.buses {
		n += m.buses[i].txns
	}
	return n
}

// NodeBusTransactions returns the cumulative transactions on one node's
// local bus.
func (m *Machine) NodeBusTransactions(node int) uint64 { return m.buses[node].txns }

// InterconnectTransactions returns the cumulative transactions that
// crossed the inter-node interconnect (always 0 with a single node).
func (m *Machine) InterconnectTransactions() uint64 { return m.ic.txns }

// CyclesToSeconds converts a cycle count to seconds at the machine's
// clock rate.
func (m *Machine) CyclesToSeconds(cycles int64) float64 {
	return float64(cycles) / (HzMHz * 1e6)
}

// SecondsToCycles converts seconds to cycles at the machine's clock rate.
func (m *Machine) SecondsToCycles(sec float64) int64 {
	return int64(sec * HzMHz * 1e6)
}
