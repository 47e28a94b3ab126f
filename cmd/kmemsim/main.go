// Command kmemsim drives arbitrary allocation workloads through any of
// the repository's allocators on the simulated multiprocessor. It can
// synthesize a workload from a size distribution, record it to a trace
// file, replay a previously recorded trace, and dump the allocator's
// internal state afterwards — the moral equivalent of the paper's
// syscall_kma/syscall_kmf benchmark scripting.
//
// Examples:
//
//	kmemsim -alloc cookie -cpus 8 -ops 200000 -dist uniform:16:4096
//	kmemsim -alloc cookie -cpus 8 -nodes 4 -ops 200000 -dist fixed:128
//	kmemsim -alloc all -cpus 4 -ops 100000 -dist fixed:128
//	kmemsim -record trace.kmtr -cpus 4 -ops 50000 -dist choice:32,64,256
//	kmemsim -replay trace.kmtr -alloc all
//	kmemsim -alloc newkma -ops 50000 -dump
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"kmem/internal/bench"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/workload"
)

func main() {
	var (
		allocName  = flag.String("alloc", "cookie", "allocator: cookie|newkma|mk|oldkma|lazybuddy|all")
		cpus       = flag.Int("cpus", 4, "number of simulated CPUs")
		ops        = flag.Int("ops", 100000, "operations to run")
		workingSet = flag.Int("workingset", 200, "live blocks at steady state")
		distSpec   = flag.String("dist", "uniform:16:4096", "size distribution: fixed:N | uniform:LO:HI | choice:A,B,C")
		seed       = flag.Int64("seed", 1, "workload seed")
		pages      = flag.Int64("pages", 8192, "physical pages")
		record     = flag.String("record", "", "write the synthesized trace to this file and exit")
		replay     = flag.String("replay", "", "replay a trace file instead of synthesizing")
		dump       = flag.Bool("dump", false, "dump allocator state after the run (kmem allocators only)")
		nodes      = flag.Int("nodes", 1, "NUMA nodes (1 = the classic single-bus machine)")
		interconn  = flag.Int64("interconnect", 0, "interconnect occupancy cycles per remote transaction (0 = default)")
	)
	flag.Parse()

	if err := run(*allocName, *cpus, *ops, *workingSet, *distSpec, *seed, *pages, *record, *replay, *dump, *nodes, *interconn); err != nil {
		fmt.Fprintf(os.Stderr, "kmemsim: %v\n", err)
		os.Exit(1)
	}
}

func parseDist(spec string) (workload.SizeDist, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "fixed":
		if len(parts) != 2 {
			return nil, fmt.Errorf("fixed:N")
		}
		n, err := strconv.ParseUint(parts[1], 10, 32)
		if err != nil {
			return nil, err
		}
		return workload.Fixed(n), nil
	case "uniform":
		if len(parts) != 3 {
			return nil, fmt.Errorf("uniform:LO:HI")
		}
		lo, err := strconv.ParseUint(parts[1], 10, 32)
		if err != nil {
			return nil, err
		}
		hi, err := strconv.ParseUint(parts[2], 10, 32)
		if err != nil {
			return nil, err
		}
		if lo == 0 || hi < lo {
			return nil, fmt.Errorf("uniform: need 0 < LO <= HI")
		}
		return workload.Uniform{Lo: lo, Hi: hi}, nil
	case "choice":
		if len(parts) != 2 {
			return nil, fmt.Errorf("choice:A,B,C")
		}
		var sizes []uint64
		var weights []int
		for _, s := range strings.Split(parts[1], ",") {
			n, err := strconv.ParseUint(s, 10, 32)
			if err != nil {
				return nil, err
			}
			sizes = append(sizes, n)
			weights = append(weights, 1)
		}
		return workload.NewChoice(sizes, weights), nil
	}
	return nil, fmt.Errorf("unknown distribution %q", parts[0])
}

func run(allocName string, cpus, ops, workingSet int, distSpec string, seed, pages int64, record, replay string, dump bool, nodes int, interconnect int64) error {
	mutate := func(cfg *machine.Config) {
		if nodes > 1 {
			cfg.Nodes = nodes
		}
		if interconnect > 0 {
			cfg.InterconnectCycles = interconnect
		}
	}
	var tr *workload.Trace
	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			return err
		}
		defer f.Close()
		if tr, err = workload.ReadTrace(f); err != nil {
			return err
		}
		fmt.Printf("replaying %s: %d events\n", replay, len(tr.Events))
	} else {
		dist, err := parseDist(distSpec)
		if err != nil {
			return err
		}
		tr = workload.Synthesize(seed, cpus, ops, workingSet, dist)
		fmt.Printf("synthesized %d events (%s, working set %d, %d CPUs, seed %d)\n",
			len(tr.Events), distSpec, workingSet, cpus, seed)
	}

	if record != "" {
		f, err := os.Create(record)
		if err != nil {
			return err
		}
		if _, err := tr.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", record)
		return nil
	}

	// Replays size their CPU count from the trace.
	maxCPU := 0
	for _, e := range tr.Events {
		if int(e.CPU) > maxCPU {
			maxCPU = int(e.CPU)
		}
	}
	ncpu := maxCPU + 1

	names := []string{allocName}
	if allocName == "all" {
		names = append(append([]string{}, bench.AllocatorNames...), "lazybuddy")
	}
	var results []*bench.ReplayResult
	for _, name := range names {
		res, err := bench.ReplayCfg(tr, name, ncpu, pages, mutate)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		results = append(results, res)
	}
	bench.ReplayTable(results).Fprint(os.Stdout)

	if dump {
		// Re-run the first kmem-family allocator and dump its state with
		// the trace's live blocks still allocated.
		fmt.Println()
		mc := bench.MachineFor(ncpu, 64<<20, pages)
		mutate(&mc)
		m := machine.New(mc)
		al, err := core.New(m, core.Params{})
		if err != nil {
			return err
		}
		if err := dumpAfterTrace(m, al, tr); err != nil {
			return err
		}
	}
	return nil
}

// dumpAfterTrace replays tr's events sequentially on the kmem allocator
// (ignoring failures) and dumps the resulting state.
func dumpAfterTrace(m *machine.Machine, al *core.Allocator, tr *workload.Trace) error {
	type slot struct {
		addr uint64
		size uint32
	}
	slots := map[uint32]slot{}
	for _, e := range tr.Events {
		c := m.CPU(int(e.CPU))
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
	al.Dump(os.Stdout)
	return nil
}
