package bench

import (
	"kmem/internal/arena"
	"kmem/internal/machine"
	"kmem/internal/workload"
)

// ReplayResult summarizes one trace replay on one allocator.
type ReplayResult struct {
	Allocator   string
	Ops         int
	Failures    int     // allocations the allocator could not satisfy
	VirtualSec  float64 // simulated time to run the trace
	OpsPerSec   float64 // throughput in virtual time
	CyclesPerOp float64
}

// Replay runs a recorded trace against the named allocator on a fresh
// simulated machine, preserving the trace's CPU placement. Replaying the
// same trace against every allocator gives an apples-to-apples
// comparison on identical operation sequences.
func Replay(t *workload.Trace, name string, ncpu int, physPages int64) (*ReplayResult, error) {
	return ReplayCfg(t, name, ncpu, physPages, nil)
}

// ReplayCfg is Replay with a machine-configuration hook: mutate (when
// non-nil) edits the machine config before the machine is built, e.g. to
// set a NUMA topology with Config.Nodes.
func ReplayCfg(t *workload.Trace, name string, ncpu int, physPages int64, mutate func(*machine.Config)) (*ReplayResult, error) {
	if err := t.Validate(ncpu); err != nil {
		return nil, err
	}
	cfg := MachineFor(ncpu, 64<<20, physPages)
	if mutate != nil {
		mutate(&cfg)
	}
	m := machine.New(cfg)
	a, err := BuildAllocator(m, name)
	if err != nil {
		return nil, err
	}

	// Replay per-CPU: each CPU consumes its own events in order. Because
	// the recorder reuses handle numbers, the events touching one handle
	// must execute in their global trace order or a free could consume
	// the wrong lifetime's allocation (and deadlock the right one). Each
	// event therefore carries its per-handle sequence number, and a slot
	// executes events strictly in that sequence; a CPU whose next event
	// is out of turn stalls. Waits always resolve: the globally earliest
	// unexecuted event's predecessors — both its in-stream ones and its
	// per-handle ones — are globally earlier, hence already executed.
	type slot struct {
		addr arena.Addr
		size uint32
		done int // per-handle events executed so far
	}
	type step struct {
		ev  workload.Event
		seq int // this event's index among its handle's events
	}
	slots := make(map[uint32]*slot)
	handleSeq := map[uint32]int{}
	perCPU := make([][]step, ncpu)
	for _, e := range t.Events {
		if _, ok := slots[e.Handle]; !ok {
			slots[e.Handle] = &slot{}
		}
		perCPU[e.CPU] = append(perCPU[e.CPU], step{ev: e, seq: handleSeq[e.Handle]})
		handleSeq[e.Handle]++
	}
	pos := make([]int, ncpu)
	res := &ReplayResult{Allocator: name, Ops: len(t.Events)}

	m.Run(func(c *machine.CPU) bool {
		id := c.ID()
		evs := perCPU[id]
		if pos[id] >= len(evs) {
			return false
		}
		st := evs[pos[id]]
		e := st.ev
		s := slots[e.Handle]
		if s.done != st.seq {
			// Another CPU owns an earlier event on this handle: stall.
			c.Work(50)
			return true
		}
		switch e.Kind {
		case workload.EvAlloc:
			b, err := a.Alloc(c, uint64(e.Size))
			if err != nil {
				res.Failures++
				s.addr, s.size = arena.NilAddr, 0
			} else {
				s.addr, s.size = b, e.Size
			}
		case workload.EvFree:
			if s.addr != arena.NilAddr {
				a.Free(c, s.addr, uint64(s.size))
				s.addr = arena.NilAddr
			}
		}
		s.done++
		pos[id]++
		return true
	})

	var maxClock int64
	for i := 0; i < ncpu; i++ {
		if t := m.CPU(i).Now(); t > maxClock {
			maxClock = t
		}
	}
	res.VirtualSec = m.CyclesToSeconds(maxClock)
	if res.VirtualSec > 0 {
		res.OpsPerSec = float64(res.Ops) / res.VirtualSec
	}
	if res.Ops > 0 {
		res.CyclesPerOp = float64(maxClock) / float64(res.Ops)
	}
	return res, nil
}

// ReplayTable compares several allocators on one trace.
func ReplayTable(results []*ReplayResult) *Table {
	t := &Table{
		Title:   "Trace replay: identical operation sequence on every allocator",
		Headers: []string{"allocator", "ops", "failures", "virtual ms", "ops/sec", "cycles/op"},
	}
	for _, r := range results {
		t.AddRowf("%s|%d|%d|%.2f|%.0f|%.0f",
			r.Allocator, r.Ops, r.Failures, r.VirtualSec*1e3, r.OpsPerSec, r.CyclesPerOp)
	}
	return t
}
