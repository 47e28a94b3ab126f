package bench

import (
	"fmt"
	"sort"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/oldkma"
	"kmem/internal/streams"
)

// AnalysisResult reproduces the paper's Analysis section on allocb/freeb
// behaviour: the old allocator's nearly fixed instruction sequence should
// take predictedUs, but cache misses inflate it several-fold, and a small
// fraction of the off-chip accesses accounts for most of the elapsed
// time. The same workload on the new allocator shows the contrast.
type AnalysisResult struct {
	Op string // "allocb" or "freeb"

	PredictedUs float64 // instruction count alone, no cache misses
	MinUs       float64
	AvgUs       float64
	MaxUs       float64

	Accesses      int     // off-chip-candidate accesses per op (avg)
	WorstFracPct  float64 // share of accesses examined (e.g. 6.3%)
	WorstSharePct float64 // share of elapsed time those accesses took
}

// RunAnalysis measures allocb/freeb-style operation triples over the old
// allocator on a 2-CPU machine (as the paper's Sequent S2000/200
// measurements were), tracing per-access costs on CPU 0 while CPU 1 runs
// the same workload. It then repeats the measurement over the new
// allocator for contrast.
func RunAnalysis(opsTraced int) ([]AnalysisResult, []AnalysisResult, error) {
	oldRes, err := runAnalysisOld(opsTraced)
	if err != nil {
		return nil, nil, err
	}
	newRes, err := runAnalysisNew(opsTraced)
	if err != nil {
		return nil, nil, err
	}
	return oldRes, newRes, nil
}

// allochOldOps allocates a message-block/data-block/buffer triple from
// the old allocator and initializes the links, as alloch did.
func allochOld(c *machine.CPU, a *oldkma.Allocator, mem *arena.Arena, bufSize uint64) ([3]arena.Addr, error) {
	var out [3]arena.Addr
	mb, err := a.Alloc(c, 64)
	if err != nil {
		return out, err
	}
	db, err := a.Alloc(c, 64)
	if err != nil {
		a.Free(c, mb, 64)
		return out, err
	}
	buf, err := a.Alloc(c, bufSize)
	if err != nil {
		a.Free(c, db, 64)
		a.Free(c, mb, 64)
		return out, err
	}
	// Link the triple: message block -> data block -> buffer.
	mem.Store64(mb, db)
	c.WriteAddr(mb)
	mem.Store64(mb+8, 0)
	c.WriteAddr(mb + 8)
	mem.Store64(db, buf)
	c.WriteAddr(db)
	mem.Store64(db+8, buf+bufSize)
	c.WriteAddr(db + 8)
	mem.Store64(db+16, 1)
	c.WriteAddr(db + 16)
	c.Work(30) // register setup, argument marshalling
	return [3]arena.Addr{mb, db, buf}, nil
}

func freebOld(c *machine.CPU, a *oldkma.Allocator, mem *arena.Arena, t [3]arena.Addr, bufSize uint64) {
	// Follow the links as freeb must.
	c.ReadAddr(t[0])
	c.ReadAddr(t[1])
	c.Work(24)
	a.Free(c, t[2], bufSize)
	a.Free(c, t[1], 64)
	a.Free(c, t[0], 64)
}

// HotLine is one row of the hot-line report accompanying the analysis.
type HotLine struct {
	Name    string
	Misses  uint64
	Atomics uint64
}

// hotLines collects the top contended lines from the old-allocator run.
var hotLines []HotLine

// HotLines returns the hottest lines recorded by the most recent
// RunAnalysis (old-allocator phase).
func HotLines() []HotLine { return hotLines }

// analysisBufSize is the STREAMS buffer size both runs allocate.
const analysisBufSize = 256

func runAnalysisOld(opsTraced int) ([]AnalysisResult, error) {
	m := machine.New(MachineFor(2, 16<<20, 2048))
	a, err := oldkma.New(m)
	if err != nil {
		return nil, err
	}
	a.DescribeLines()
	m.EnableLineProfile()
	mem := m.Mem()
	res, err := traceAllocb(m, "old", opsTraced, func(c *machine.CPU) (func(), error) {
		t, err := allochOld(c, a, mem, analysisBufSize)
		return func() { freebOld(c, a, mem, t, analysisBufSize) }, err
	})
	if err != nil {
		return nil, err
	}
	hotLines = hotLines[:0]
	for _, st := range m.TopLines(5) {
		name := st.Name
		if name == "" {
			name = fmt.Sprintf("line %#x (heap data)", uint64(st.Line))
		}
		hotLines = append(hotLines, HotLine{Name: name, Misses: st.Misses, Atomics: st.Atomics})
	}
	return res, nil
}

func runAnalysisNew(opsTraced int) ([]AnalysisResult, error) {
	m := machine.New(MachineFor(2, 16<<20, 2048))
	al, err := core.New(m, core.Params{})
	if err != nil {
		return nil, err
	}
	s, err := streams.New(al)
	if err != nil {
		return nil, err
	}
	return traceAllocb(m, "new", opsTraced, func(c *machine.CPU) (func(), error) {
		msg, err := s.Allocb(c, analysisBufSize)
		return func() { s.Freeb(c, msg) }, err
	})
}

// traceAllocb is the experiment both runs share: allocb allocates one
// message on a CPU and returns the freeb that releases it. After a
// warm-up of both CPUs, CPU 0's allocb and freeb are traced opsTraced
// times each, CPU 1 — the second CPU of the S2000/200 — running a
// competing pair before every traced operation.
func traceAllocb(m *machine.Machine, which string, opsTraced int, allocb func(*machine.CPU) (func(), error)) ([]AnalysisResult, error) {
	c0, c1 := m.CPU(0), m.CPU(1)
	contend := func() {
		if freeb, err := allocb(c1); err == nil {
			freeb()
		}
	}
	for i := 0; i < 32; i++ {
		freeb, err := allocb(c0)
		if err != nil {
			return nil, err
		}
		freeb()
		contend()
	}
	var allocSamples, freeSamples []traceSample
	for i := 0; i < opsTraced; i++ {
		contend()
		c0.StartTrace()
		start, startInsns := c0.Now(), c0.Stats().Instructions
		freeb, err := allocb(c0)
		if err != nil {
			return nil, err
		}
		allocSamples = append(allocSamples, sampleTrace(m, c0, start, startInsns))
		contend()

		c0.StartTrace()
		start, startInsns = c0.Now(), c0.Stats().Instructions
		freeb()
		freeSamples = append(freeSamples, sampleTrace(m, c0, start, startInsns))
	}
	return []AnalysisResult{
		summarize(m, "allocb("+which+")", allocSamples),
		summarize(m, "freeb("+which+")", freeSamples),
	}, nil
}

type traceSample struct {
	cycles int64
	insns  uint64
	costs  []int64 // per-access cycle costs
}

func sampleTrace(m *machine.Machine, c *machine.CPU, startCycles int64, startInsns uint64) traceSample {
	events := c.StopTrace()
	s := traceSample{
		cycles: c.Now() - startCycles,
		insns:  c.Stats().Instructions - startInsns,
	}
	for _, e := range events {
		s.costs = append(s.costs, e.Cycles)
	}
	return s
}

// summarize computes the Analysis-section numbers: predicted time from
// instruction count, measured min/avg/max, and the elapsed-time share of
// the worst ~6.3% of accesses (the paper: "the worst 19 of the 304
// off-chip accesses (6.3%) accounted for 57.6% of the elapsed time").
func summarize(m *machine.Machine, op string, samples []traceSample) AnalysisResult {
	const worstFrac = 0.063
	var minC, maxC, sumC int64
	var sumInsns uint64
	var sumAcc int
	var shareSum float64
	minC = int64(1) << 62
	for _, s := range samples {
		if s.cycles < minC {
			minC = s.cycles
		}
		if s.cycles > maxC {
			maxC = s.cycles
		}
		sumC += s.cycles
		sumInsns += s.insns
		sumAcc += len(s.costs)

		costs := append([]int64(nil), s.costs...)
		sort.Slice(costs, func(i, j int) bool { return costs[i] > costs[j] })
		k := int(float64(len(costs))*worstFrac + 0.5)
		if k < 1 {
			k = 1
		}
		var worst int64
		for _, c := range costs[:k] {
			worst += c
		}
		if s.cycles > 0 {
			shareSum += float64(worst) / float64(s.cycles)
		}
	}
	n := int64(len(samples))
	toUs := func(cy int64) float64 { return m.CyclesToSeconds(cy) * 1e6 }
	return AnalysisResult{
		Op:            op,
		PredictedUs:   toUs(int64(sumInsns/uint64(n)) * machine.CyclesPerInsn),
		MinUs:         toUs(minC),
		AvgUs:         toUs(sumC / n),
		MaxUs:         toUs(maxC),
		Accesses:      sumAcc / int(n),
		WorstFracPct:  6.3,
		WorstSharePct: shareSum / float64(n) * 100,
	}
}

// HotLineTable renders the hottest contended lines of the old-allocator
// run — the software analogue of reading the logic-analyzer trace.
func HotLineTable() *Table {
	t := &Table{
		Title:   "Hottest cache lines during the old-allocator run (off-chip transfers)",
		Headers: []string{"line", "misses", "atomics"},
	}
	for _, h := range hotLines {
		t.AddRowf("%s|%d|%d", h.Name, h.Misses, h.Atomics)
	}
	return t
}

// AnalysisTable renders the Analysis-section comparison.
func AnalysisTable(old, new_ []AnalysisResult) *Table {
	t := &Table{
		Title: "Analysis: allocb/freeb over the old vs new allocator, 2 CPUs " +
			"(paper: allocb predicted 12.5us, measured avg 64.2us; worst 6.3% of accesses = 57.6% of time)",
		Headers: []string{"op", "predicted us", "min us", "avg us", "max us", "accesses", "worst-6.3% share"},
	}
	for _, rs := range [][]AnalysisResult{old, new_} {
		for _, r := range rs {
			t.AddRowf("%s|%.2f|%.2f|%.2f|%.2f|%d|%.1f%%",
				r.Op, r.PredictedUs, r.MinUs, r.AvgUs, r.MaxUs, r.Accesses, r.WorstSharePct)
		}
	}
	return t
}
