package bench

import (
	"flag"
	"fmt"
	"io"
	"strings"
)

// ablations are the design-choice studies behind `ablate -param`, in
// the order `-param all` runs them.
var ablations = []struct {
	param string
	run   func() (any, *Table, error)
}{
	{"target", ablation(func() ([]TargetRow, error) { return AblateTarget([]int{1, 2, 5, 10, 20, 40}, 0.05) }, TargetTable)},
	{"split", ablation(func() ([]SplitRow, error) { return AblateSplitFreelist(0.05) }, SplitTable)},
	{"radix", ablation(func() ([]RadixRow, error) { return AblateRadix(40) }, RadixTable)},
	{"lazybuddy", ablation(func() ([]LazyRow, error) { return AblateLazyBuddy(0.05) }, LazyTable)},
	{"tlb", ablation(func() ([]TLBRow, error) { return AblateTLB(0.05) }, TLBTable)},
}

func ablation[R any](run func() ([]R, error), table func([]R) *Table) func() (any, *Table, error) {
	return func() (any, *Table, error) {
		rows, err := run()
		if err != nil {
			return nil, nil, err
		}
		return rows, table(rows), nil
	}
}

// Sweeps lists every experiment in the order `kmembench all` runs them:
// the paper's evaluation, then the extensions.
var Sweeps = []*Sweep{
	{
		Name:  "bestcase",
		Help:  "Figures 7 and 8: alloc/free pairs/s vs CPUs, four allocators",
		Title: "Figures 7 & 8: best-case scaling",
		Backs: "paper Figures 7 and 8 (EXPERIMENTS.md E2/E3)",
		Smoke: [][]string{{"-cpus", "1,2", "-seconds", "0.002"}},
		Flags: func(fs *flag.FlagSet) runner {
			cpus := listFlag(fs, "cpus", "comma-separated CPU counts", 1, 2, 4, 8, 12, 16, 20, 25)
			seconds := fs.Float64("seconds", 0.05, "virtual seconds per point")
			size := fs.Uint64("size", 128, "block size")
			logY := fs.Bool("log", false, "semilog plot (Figure 8)")
			csv := fs.String("csv", "", "also write the series data as CSV to this file")
			allocs := fs.String("allocators", strings.Join(AllocatorNames, ","), "allocators to run")
			return func() (*Report, error) {
				counts := *cpus
				res, err := RunBestCase(strings.Split(*allocs, ","), counts, *size, *seconds)
				if err != nil {
					return nil, err
				}
				return &Report{Doc: res, Render: func(w io.Writer) error {
					res.Figure(*logY).Fprint(w)
					if err := writeCSV(w, *csv, res.Figure(*logY)); err != nil {
						return err
					}
					fmt.Fprintln(w)
					res.SpeedupTable().Fprint(w)
					if r, err := res.Ratio("cookie", "oldkma", 0); err == nil {
						fmt.Fprintf(w, "\ncookie/oldkma at %d CPU(s): %.1fx (paper: 15x)\n", counts[0], r)
					}
					if r, err := res.Ratio("cookie", "oldkma", len(counts)-1); err == nil {
						fmt.Fprintf(w, "cookie/oldkma at %d CPUs: %.0fx (paper: >1000x)\n", counts[len(counts)-1], r)
					}
					return nil
				}}, nil
			}
		},
	},
	{
		Name:  "worstcase",
		Help:  "Figure 9: exhaust-free-repeat sweep over block sizes",
		Title: "Figure 9: worst-case sweep",
		Backs: "paper Figure 9 (EXPERIMENTS.md E4)",
		Smoke: [][]string{{"-sizes", "64,4096", "-pages", "64"}},
		Flags: func(fs *flag.FlagSet) runner {
			sizes := listFlag[uint64](fs, "sizes", "block sizes", 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
			pages := fs.Int64("pages", 2048, "physical pages")
			csv := fs.String("csv", "", "also write the series data as CSV to this file")
			alloc := fs.String("allocator", "newkma", "allocator to run (mk demonstrates the wedge)")
			return func() (*Report, error) {
				if *alloc != "newkma" && *alloc != "cookie" {
					rows, err := RunWorstCaseAny(*alloc, *sizes, *pages)
					if err != nil {
						return nil, err
					}
					return report(rows, "", WorstCaseAnyTable(*alloc, rows)), nil
				}
				res, err := RunWorstCase(*sizes, *pages)
				if err != nil {
					return nil, err
				}
				return &Report{Doc: res, Render: func(w io.Writer) error {
					res.Figure().Fprint(w)
					if err := writeCSV(w, *csv, res.Figure()); err != nil {
						return err
					}
					fmt.Fprintln(w, "\nNote: the whole sweep ran on one system with no reboot and no sleeps —")
					fmt.Fprintln(w, "each size reused memory the previous size had fragmented (online coalescing).")
					return nil
				}}, nil
			}
		},
	},
	{
		Name:  "insns",
		Help:  "instruction-count table (cookie 13/13, standard 35/32)",
		Title: "Instruction counts",
		Backs: "paper Measurements §, instruction counts (EXPERIMENTS.md E5)",
		Smoke: [][]string{nil},
		Flags: func(fs *flag.FlagSet) runner {
			return func() (*Report, error) {
				rows, err := RunInsnCounts()
				if err != nil {
					return nil, err
				}
				return report(rows, "", InsnTable(rows)), nil
			}
		},
	},
	{
		Name:  "analysis",
		Help:  "allocb/freeb off-chip access study (Analysis section)",
		Title: "Analysis: allocb/freeb",
		Backs: "paper Analysis § (EXPERIMENTS.md E1; the hot-line table is X5)",
		Smoke: [][]string{{"-ops", "8"}},
		Flags: func(fs *flag.FlagSet) runner {
			ops := fs.Int("ops", 128, "operations to trace")
			return func() (*Report, error) {
				old, new_, err := RunAnalysis(*ops)
				if err != nil {
					return nil, err
				}
				return report(struct {
					Old      []AnalysisResult
					New      []AnalysisResult
					HotLines []HotLine
				}{old, new_, HotLines()}, "", AnalysisTable(old, new_), HotLineTable()), nil
			}
		},
	},
	{
		Name:     "dlm",
		Help:     "distributed-lock-manager per-layer miss rates",
		Title:    "DLM miss rates",
		Backs:    "paper Measurements §, distributed lock manager (EXPERIMENTS.md E6; -scale is E9)",
		Smoke:    [][]string{{"-ops", "300"}},
		AnyValue: []string{"seed"},
		Flags: func(fs *flag.FlagSet) runner {
			cfg := DefaultDLMConfig()
			fs.IntVar(&cfg.CPUs, "cpus", cfg.CPUs, "cluster nodes (one per CPU)")
			fs.IntVar(&cfg.OpsPerNode, "ops", cfg.OpsPerNode, "lock requests per node")
			fs.Uint64Var(&cfg.Resources, "resources", cfg.Resources, "resource id space")
			fs.Float64Var(&cfg.ZipfSkew, "skew", cfg.ZipfSkew, "resource Zipf skew")
			fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "workload seed")
			scale := fs.Bool("scale", false, "also sweep cluster sizes 1..8")
			return func() (*Report, error) {
				out, err := RunDLM(cfg)
				if err != nil {
					return nil, err
				}
				doc := struct {
					Result  *DLMResult
					Scaling []DLMScaleRow `json:",omitempty"`
				}{Result: out}
				if *scale {
					if doc.Scaling, err = RunDLMScaling([]int{1, 2, 4, 8}, cfg.OpsPerNode/2); err != nil {
						return nil, err
					}
				}
				return &Report{Doc: doc, Render: func(w io.Writer) error {
					out.Table().Fprint(w)
					fmt.Fprintln(w, "\nPaper (4-CPU DLM): per-CPU miss 2.1-7.8%, global miss 1.2-3.0%, combined 0.02-0.14%.")
					if doc.Scaling != nil {
						fmt.Fprintln(w)
						DLMScaleTable(doc.Scaling).Fprint(w)
					}
					return nil
				}}, nil
			}
		},
	},
	{
		Name:  "cyclic",
		Help:  "the day/night commercial workload (design goal 6)",
		Title: "Cyclic day/night workload",
		Backs: "paper design §, cyclic workloads (EXPERIMENTS.md E7)",
		Smoke: [][]string{{"-cycles", "1"}},
		Flags: func(fs *flag.FlagSet) runner {
			cycles := fs.Int("cycles", 3, "day/night cycles to run")
			pages := fs.Int64("pages", 192, "physical pages (tight on purpose)")
			return func() (*Report, error) {
				res, err := RunCyclic(*cycles, *pages)
				return tabled(res, err, `
An allocator without online coalescing cannot complete this cycle without
a reboot between phases (see internal/mk's TestNoCoalescingAcrossSizes).
`)
			}
		},
	},
	{
		Name:  "pressure",
		Help:  "memory-pressure sweep: fail-fast Alloc vs blocking AllocWait under shrinking pools",
		Title: "Memory-pressure sweep",
		Backs: "EXPERIMENTS.md E11 (DESIGN.md §8); no BENCHMARK.json workload sweeps pool size",
		Smoke: [][]string{{"-cpus", "2", "-nodes", "1,2", "-pages", "32", "-rounds", "50"}},
		Flags: func(fs *flag.FlagSet) runner {
			cpus := fs.Int("cpus", 4, "CPUs")
			nodes := listFlag(fs, "nodes", "comma-separated node counts to sweep", 1, 2, 4)
			pages := listFlag[int64](fs, "pages", "comma-separated physical pool sizes to sweep", 96, 64, 48, 32)
			rounds := fs.Int("rounds", 400, "allocation rounds per point")
			return func() (*Report, error) {
				res, err := RunPressure(*cpus, *nodes, *pages, *rounds)
				return tabled(res, err, `
Each point runs the same oversubscribed churn twice: "nosleep" counts every
transient exhaustion as a failure; "wait" parks on the per-class wait queue
and is woken by frees and reclaim progress (failures only after the bound).
`)
			}
		},
	},
	{
		Name:      "frag",
		Help:      "fragmentation triple (reserved/resident/live) over churn cycles, eager vs lazy backing",
		Title:     "Fragmentation triple: eager vs lazy backing",
		Backs:     "BENCH_6.json (EXPERIMENTS.md E14, DESIGN.md §11)",
		Baselines: []Baseline{{File: "BENCH_6.json"}},
		Smoke:     [][]string{{"-cycles", "1", "-pages", "2048"}},
		Flags: func(fs *flag.FlagSet) runner {
			cycles := fs.Int("cycles", 3, "grow/churn/shrink/trim cycles per mode")
			pages := fs.Int64("pages", 4096, "physical pages")
			return func() (*Report, error) {
				res, err := RunFrag(*cycles, *pages)
				return tabled(res, err, `
Eager backing unmaps as spans coalesce, so resident tracks live; lazy backing
keeps freed spans' frames for reuse until a trim strips them, trading a larger
transient footprint for commit-free reallocation (see DESIGN.md, virtual spans).
`)
			}
		},
	},
	{
		Name:      "objcache",
		Help:      "STREAMS triple pair over named object caches vs the plain cookie path (ctor-skip win)",
		Title:     "Typed object caches: ctor-skip win",
		Backs:     "BENCH_7.json (EXPERIMENTS.md E15, DESIGN.md §12)",
		Baselines: []Baseline{{File: "BENCH_7.json"}},
		Smoke:     [][]string{{"-sizes", "64", "-pairs", "100"}},
		Flags: func(fs *flag.FlagSet) runner {
			sizes := listFlag[uint64](fs, "sizes", "comma-separated buffer sizes", 64, 256, 1024)
			pairs := fs.Int("pairs", 2000, "steady-state Allocb/Freeb pairs per point")
			return func() (*Report, error) {
				res, err := RunObjCache(*sizes, *pairs)
				return tabled(res, err, `
The cookie baseline re-initializes the triple on every allocb (the paper's
"nearly fixed code sequence"); the named caches hand back the triple in the
shape the last freeb left it, so the constructor — and the re-linking — are
skipped on every warm Get (see DESIGN.md, typed object caches).
`)
			}
		},
	},
	{
		Name:  "harden",
		Help:  "corruption-hardening overhead: alloc/free pair with redzones+poison off vs on",
		Title: "Corruption-hardening overhead",
		Backs: "TestBaselinesReproduce's fresh-run claims: no detection on a clean workload, hardening-off STREAMS pair equal to BENCH_7.json (DESIGN.md §13)",
		Smoke: [][]string{{"-sizes", "64", "-pairs", "100"}},
		Flags: func(fs *flag.FlagSet) runner {
			sizes := listFlag[uint64](fs, "sizes", "comma-separated block sizes", 64, 256, 1024)
			pairs := fs.Int("pairs", 2000, "steady-state alloc/free pairs per point")
			return func() (*Report, error) {
				res, err := RunHarden(*sizes, *pairs)
				if err != nil {
					return nil, err
				}
				return report(res, `
The hardened pair pays for canary writes, poison fills and verify-on-alloc;
with Params.Harden nil every hook is a nil check and the pair is cycle-identical
to the unhardened allocator (the STREAMS table is held equal to BENCH_7 by TestBaselinesReproduce).
`, res.Table(), res.StreamsTable()), nil
			}
		},
	},
	{
		Name:  "projection",
		Help:  "scaling under a widening CPU/memory gap (the paper's closing claim)",
		Title: "Projection: widening CPU/memory gap",
		Backs: "paper conclusions § (EXPERIMENTS.md E8)",
		Smoke: [][]string{{"-seconds", "0.002"}},
		Flags: func(fs *flag.FlagSet) runner {
			seconds := fs.Float64("seconds", 0.05, "virtual seconds per point")
			return func() (*Report, error) {
				rows, err := RunProjection(*seconds)
				if err != nil {
					return nil, err
				}
				return report(rows, "", ProjectionTable(rows)), nil
			}
		},
	},
	{
		Name:  "ablate",
		Help:  "design-choice ablations (A1-A5 in DESIGN.md)",
		Title: "Ablations",
		Backs: "the paper's design arguments, ablated (EXPERIMENTS.md A1-A5)",
		Smoke: [][]string{{"-param", "split"}},
		Flags: func(fs *flag.FlagSet) runner {
			param := fs.String("param", "all", "target|split|radix|lazybuddy|tlb|all")
			return func() (*Report, error) {
				collected := map[string]any{}
				var tables []printer
				for _, ab := range ablations {
					if *param != "all" && *param != ab.param {
						continue
					}
					rows, tbl, err := ab.run()
					if err != nil {
						return nil, err
					}
					collected[ab.param] = rows
					tables = append(tables, tbl)
				}
				if tables == nil {
					return nil, fmt.Errorf("unknown ablation %q", *param)
				}
				return report(collected, "\n", tables...), nil
			}
		},
	},
	{
		Name:  "topology",
		Help:  "NUMA sweep: producer/consumer cross-CPU frees vs node count",
		Title: "NUMA topology sweep",
		Backs: "EXPERIMENTS.md E10 (DESIGN.md §7); no BENCHMARK.json workload varies the node count",
		Smoke: [][]string{
			{"-cpus", "4", "-nodes", "1,2", "-seconds", "0.002"},
			{"-cpus", "4", "-nodes", "1,4", "-seconds", "0.002", "-pairing", "cross"},
		},
		AnyValue: []string{"interconnect"},
		Flags: func(fs *flag.FlagSet) runner {
			cpus := fs.Int("cpus", 8, "total CPUs (held fixed across the sweep; must be even)")
			nodes := listFlag(fs, "nodes", "comma-separated node counts to sweep", 1, 2, 4)
			seconds := fs.Float64("seconds", 0.02, "virtual seconds per point")
			size := fs.Uint64("size", 128, "block size")
			pairing := fs.String("pairing", "near", "near (producer and consumer adjacent) or cross (always another node)")
			interconnect := fs.Int64("interconnect", 0, "interconnect occupancy cycles per remote transaction (0 = default)")
			return func() (*Report, error) {
				res, err := RunTopology(*cpus, *nodes, *size, *seconds, *pairing, *interconnect)
				return tabled(res, err, `
Partitioning the machine into nodes splits both the bus bandwidth and the
slow-path pool locks; frees of remote blocks route home over the interconnect
(remote frees), and dry home pools steal cached lists cross-node (steals).
Only a cache holding a stolen list spills block by block (routed); the rest
hand whole lists to their own node's pool.
`)
			}
		},
	},
	{
		Name:  "scaling",
		Help:  "CPUs x nodes sweep, locked vs rseq+CAS fast paths, lock cycle accounting",
		Title: "Scaling sweep: optimistic fast paths and lock accounting",
		Backs: "BENCH_9.json (EXPERIMENTS.md E16, DESIGN.md §14)",
		Baselines: []Baseline{
			{File: "BENCH_9.json"},
		},
		Smoke: [][]string{
			{"-cpus", "2,4", "-nodes", "1,2", "-seconds", "0.002"},
		},
		Flags: func(fs *flag.FlagSet) runner {
			cpus := listFlag(fs, "cpus", "comma-separated CPU counts (each even)", 2, 4, 8)
			nodes := listFlag(fs, "nodes", "comma-separated node counts (sweep skips counts that do not divide the CPUs)", 1, 2, 4)
			seconds := fs.Float64("seconds", 0.005, "virtual seconds per point")
			size := fs.Uint64("size", 128, "block size")
			return func() (*Report, error) {
				res, err := RunScaling(*cpus, *nodes, *size, *seconds)
				if err != nil {
					return nil, err
				}
				return report(res, lockFreeHeadline(res)+`
Both runs keep remote-free shards on; "lockfree on" swaps the per-CPU
interrupt-masked paths for restartable sequences and the global freelists for
CAS commits (restarts/retries are the cycles the optimism paid back).
`, res.Table()), nil
			}
		},
	},
	{
		Name:  "replay",
		Help:  "one trace (synthesized, -record'ed or -replay'ed) on any or all five allocators; -dump the state",
		Title: "Trace replay: one operation sequence, any allocator",
		Backs: "EXPERIMENTS.md X1 and X3: the one place an identical operation sequence runs through cookie, newkma, mk, oldkma and lazybuddy",
		Smoke: [][]string{
			{"-ops", "2000", "-cpus", "2", "-alloc", "all"},
			{"-ops", "500", "-cpus", "2", "-nodes", "2", "-dump"},
		},
		AnyValue: []string{"seed", "interconnect"},
		Flags: func(fs *flag.FlagSet) runner {
			var cfg TraceConfig
			fs.StringVar(&cfg.Alloc, "alloc", "cookie", "allocator: cookie|newkma|mk|oldkma|lazybuddy|all")
			fs.IntVar(&cfg.CPUs, "cpus", 4, "number of simulated CPUs")
			fs.IntVar(&cfg.Ops, "ops", 100000, "operations to run")
			fs.IntVar(&cfg.WorkingSet, "workingset", 200, "live blocks at steady state")
			fs.StringVar(&cfg.Dist, "dist", "uniform:16:4096", "size distribution: fixed:N | uniform:LO:HI | choice:A,B,C")
			fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
			fs.Int64Var(&cfg.Pages, "pages", 8192, "physical pages")
			fs.StringVar(&cfg.Record, "record", "", "write the synthesized trace to this file and exit")
			fs.StringVar(&cfg.ReplayFile, "replay", "", "replay a trace file instead of synthesizing")
			fs.BoolVar(&cfg.Dump, "dump", false, "dump allocator state after the run (the paper's allocator only)")
			fs.IntVar(&cfg.Nodes, "nodes", 1, "NUMA nodes (1 = the classic single-bus machine)")
			fs.Int64Var(&cfg.Interconnect, "interconnect", 0, "interconnect occupancy cycles per remote transaction (0 = default)")
			return func() (*Report, error) {
				res, err := RunTrace(cfg)
				if err != nil {
					return nil, err
				}
				return report(res, "", res), nil
			}
		},
	},
}

// lockFreeHeadline is the scaling sweep's one-line summary of what the
// optimistic paths bought at its most contended point, if the sweep has it.
func lockFreeHeadline(res *ScalingResult) string {
	lk, lf := res.Point(8, 4, "prodcons", false), res.Point(8, 4, "prodcons", true)
	if lk == nil || lf == nil || lk.LockWaitCycles == 0 {
		return ""
	}
	wait := fmt.Sprintf("cut lock wait %.1fx (%d -> %d cycles)",
		float64(lk.LockWaitCycles)/float64(lf.LockWaitCycles), lk.LockWaitCycles, lf.LockWaitCycles)
	if lf.LockWaitCycles == 0 {
		wait = fmt.Sprintf("eliminated lock wait (%d -> 0 cycles)", lk.LockWaitCycles)
	}
	return fmt.Sprintf("\n8 CPUs / 4 nodes, prodcons: lock-free paths %s and gained %.0f%% throughput\n",
		wait, 100*(lf.PairsPerSec/lk.PairsPerSec-1))
}
