package bench

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"kmem/internal/arena"
	"kmem/internal/core"
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
// simulated machine built from cfg (whose NumCPUs must cover the trace's
// CPU placement, which is preserved). Replaying the same trace against
// every allocator gives an apples-to-apples comparison on identical
// operation sequences.
func Replay(t *workload.Trace, name string, cfg machine.Config) (*ReplayResult, error) {
	ncpu := cfg.NumCPUs
	if err := t.Validate(ncpu); err != nil {
		return nil, err
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

// TraceConfig is the flag set of `kmembench replay`, the scripting
// harness in the manner of the paper's syscall_kma/syscall_kmf: obtain
// one trace — read from ReplayFile, else synthesized — and save it to
// Record, or else run it through Alloc on a machine of the given shape.
type TraceConfig struct {
	Alloc              string // one allocator name, or "all" for all five
	Dist               string // of the synthesized trace, as are the next four
	CPUs, Ops          int
	WorkingSet         int // live blocks at steady state
	Seed               int64
	Record, ReplayFile string
	Pages              int64
	Nodes              int
	Interconnect       int64 // occupancy cycles per remote transaction; 0 keeps the machine's default
	Dump               bool
}

// TraceResult is what RunTrace did.
type TraceResult struct {
	Source   string          // where the trace came from, as a sentence
	Recorded string          `json:",omitempty"` // the file it was saved to, in which case nothing ran
	Results  []*ReplayResult `json:",omitempty"`
	Dump     string          `json:",omitempty"` // the paper's allocator's state after the trace, under -dump
}

// Fprint renders the result as the command prints it.
func (r *TraceResult) Fprint(w io.Writer) {
	fmt.Fprintln(w, r.Source)
	if r.Recorded != "" {
		fmt.Fprintf(w, "trace written to %s\n", r.Recorded)
		return
	}
	ReplayTable(r.Results).Fprint(w)
	if r.Dump != "" {
		fmt.Fprintf(w, "\n%s", r.Dump)
	}
}

// RunTrace obtains cfg's trace and records or replays it.
func RunTrace(cfg TraceConfig) (*TraceResult, error) {
	var tr *workload.Trace
	res := &TraceResult{}
	if cfg.ReplayFile != "" {
		f, err := os.Open(cfg.ReplayFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if tr, err = workload.ReadTrace(f); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.ReplayFile, err)
		}
		res.Source = fmt.Sprintf("replaying %s: %d events", cfg.ReplayFile, len(tr.Events))
	} else {
		dist, err := workload.ParseDist(cfg.Dist)
		if err != nil {
			return nil, err
		}
		tr = workload.Synthesize(cfg.Seed, cfg.CPUs, cfg.Ops, cfg.WorkingSet, dist)
		res.Source = fmt.Sprintf("synthesized %d events (%s, working set %d, %d CPUs, seed %d)",
			len(tr.Events), cfg.Dist, cfg.WorkingSet, cfg.CPUs, cfg.Seed)
	}
	if cfg.Record != "" {
		res.Recorded = cfg.Record
		return res, writeFile(cfg.Record, func(w io.Writer) error { _, err := tr.WriteTo(w); return err })
	}

	// The machine has as many CPUs as the trace uses.
	ncpu := 1
	for _, e := range tr.Events {
		ncpu = max(ncpu, int(e.CPU)+1)
	}
	mc := MachineFor(ncpu, 64<<20, cfg.Pages)
	mc.Nodes = cfg.Nodes
	if cfg.Interconnect > 0 {
		mc.InterconnectCycles = cfg.Interconnect
	}
	names := []string{cfg.Alloc}
	if cfg.Alloc == "all" {
		names = append(slices.Clone(AllocatorNames), "lazybuddy")
	}
	for _, name := range names {
		r, err := Replay(tr, name, mc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.Results = append(res.Results, r)
	}
	if cfg.Dump {
		al, err := core.New(machine.New(mc), core.Params{})
		if err != nil {
			return nil, err
		}
		var dump strings.Builder
		dumpAfterTrace(&dump, al, tr)
		res.Dump = dump.String()
	}
	return res, nil
}

// dumpAfterTrace runs tr's events one after another on the paper's
// allocator (ignoring failures) and dumps the state it is left in, the
// trace's live blocks still allocated.
func dumpAfterTrace(w io.Writer, al *core.Allocator, tr *workload.Trace) {
	type slot struct {
		addr arena.Addr
		size uint32
	}
	slots := map[uint32]slot{}
	for _, e := range tr.Events {
		c := al.Machine().CPU(int(e.CPU))
		switch e.Kind {
		case workload.EvAlloc:
			if b, err := al.Alloc(c, uint64(e.Size)); err == nil {
				slots[e.Handle] = slot{b, e.Size}
			}
		case workload.EvFree:
			if s, ok := slots[e.Handle]; ok {
				al.Free(c, s.addr, uint64(s.size))
				delete(slots, e.Handle)
			}
		}
	}
	al.Dump(w)
}
