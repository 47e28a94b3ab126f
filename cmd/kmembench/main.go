// Command kmembench regenerates every experiment of McKenney &
// Slingwine's 1993 USENIX paper on the simulated shared-memory
// multiprocessor. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for measured-vs-paper results.
//
// Usage:
//
//	kmembench bestcase  [-cpus 1,2,...] [-seconds 0.05] [-size 128] [-log]
//	kmembench worstcase [-sizes 16,...,16384] [-pages 2048]
//	kmembench dlm       [-cpus 4] [-ops 20000] [-resources 2000] [-skew 1.1]
//	kmembench insns
//	kmembench analysis  [-ops 128]
//	kmembench ablate    [-param target|split|radix|lazybuddy|all]
//	kmembench adaptive  [-bursts 400] [-burst 400] [-size 128] [-json]
//	kmembench topology  [-cpus 8] [-nodes 1,2,4] [-pairing near|cross] [-seconds 0.02]
//	kmembench scaling   [-cpus 2,4,8] [-nodes 1,2,4] [-seconds 0.005] [-size 128] [-json]
//	kmembench pressure  [-cpus 4] [-nodes 1,2,4] [-pages 96,64,48,32] [-rounds 400]
//	kmembench frag      [-cycles 3] [-pages 4096]
//	kmembench objcache  [-sizes 64,256,1024] [-pairs 2000]
//	kmembench harden    [-sizes 64,256,1024] [-pairs 2000]
//	kmembench all
//
// Every subcommand accepts -json to emit its result rows as one JSON
// object instead of rendered tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"kmem/internal/bench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "bestcase":
		err = cmdBestCase(args)
	case "worstcase":
		err = cmdWorstCase(args)
	case "dlm":
		err = cmdDLM(args)
	case "insns":
		err = cmdInsns(args)
	case "analysis":
		err = cmdAnalysis(args)
	case "ablate":
		err = cmdAblate(args)
	case "adaptive":
		err = cmdAdaptive(args)
	case "topology":
		err = cmdTopology(args)
	case "scaling":
		err = cmdScaling(args)
	case "cyclic":
		err = cmdCyclic(args)
	case "pressure":
		err = cmdPressure(args)
	case "frag":
		err = cmdFrag(args)
	case "objcache":
		err = cmdObjCache(args)
	case "harden":
		err = cmdHarden(args)
	case "projection":
		err = cmdProjection(args)
	case "serve":
		err = cmdServe(args)
	case "all":
		err = cmdAll()
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "kmembench: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kmembench %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `kmembench regenerates the paper's evaluation:
  bestcase   Figures 7 and 8: alloc/free pairs/s vs CPUs, four allocators
  worstcase  Figure 9: exhaust-free-repeat sweep over block sizes
  dlm        distributed-lock-manager per-layer miss rates
  insns      instruction-count table (cookie 13/13, standard 35/32)
  analysis   allocb/freeb off-chip access study (Analysis section)
  ablate     design-choice ablations (A1-A5 in DESIGN.md)
  adaptive   adaptive target controller vs the paper's fixed heuristic
  topology   NUMA sweep: producer/consumer cross-CPU frees vs node count
  scaling    CPUs x nodes sweep, remote-free shards on/off, lock cycle accounting
  cyclic     the day/night commercial workload (design goal 6)
  pressure   memory-pressure sweep: fail-fast Alloc vs blocking AllocWait under shrinking pools
  frag       fragmentation triple (reserved/resident/live) over churn cycles, eager vs lazy backing
  objcache   STREAMS triple pair over named object caches vs the plain cookie path (ctor-skip win)
  harden     corruption-hardening overhead: alloc/free pair with redzones+poison off vs on
  projection scaling under a widening CPU/memory gap (the paper's closing claim)
  serve      serving simulation: session traces with per-phase alloc/free latency quantiles
  all        everything above with default settings`)
}

// emitJSON writes v as one JSON object on stdout through the shared
// bench.Emit envelope — every subcommand's -json flag funnels through
// it, so each output carries "Schema": "kmembench/<name>" and
// "SchemaVersion" for CI and the committed BENCH_*.json baselines.
func emitJSON(name string, v any) error {
	return bench.Emit(os.Stdout, name, v)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseSizes(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func cmdBestCase(args []string) error {
	fs := flag.NewFlagSet("bestcase", flag.ExitOnError)
	cpus := fs.String("cpus", "1,2,4,8,12,16,20,25", "comma-separated CPU counts")
	seconds := fs.Float64("seconds", 0.05, "virtual seconds per point")
	size := fs.Uint64("size", 128, "block size")
	logY := fs.Bool("log", false, "semilog plot (Figure 8)")
	csv := fs.String("csv", "", "also write the series data as CSV to this file")
	allocs := fs.String("allocators", strings.Join(bench.AllocatorNames, ","), "allocators to run")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	counts, err := parseInts(*cpus)
	if err != nil {
		return err
	}
	names := strings.Split(*allocs, ",")
	res, err := bench.RunBestCase(names, counts, *size, *seconds)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("bestcase", res)
	}
	res.Figure(*logY).Fprint(os.Stdout)
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			return err
		}
		if err := res.Figure(*logY).WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("(series written to %s)\n", *csv)
	}
	fmt.Println()
	res.SpeedupTable().Fprint(os.Stdout)
	if r, err := res.Ratio("cookie", "oldkma", 0); err == nil {
		fmt.Printf("\ncookie/oldkma at %d CPU(s): %.1fx (paper: 15x)\n", counts[0], r)
	}
	if r, err := res.Ratio("cookie", "oldkma", len(counts)-1); err == nil {
		fmt.Printf("cookie/oldkma at %d CPUs: %.0fx (paper: >1000x)\n", counts[len(counts)-1], r)
	}
	return nil
}

func cmdWorstCase(args []string) error {
	fs := flag.NewFlagSet("worstcase", flag.ExitOnError)
	sizes := fs.String("sizes", "16,32,64,128,256,512,1024,2048,4096,8192,16384", "block sizes")
	pages := fs.Int64("pages", 2048, "physical pages")
	csv := fs.String("csv", "", "also write the series data as CSV to this file")
	alloc := fs.String("allocator", "newkma", "allocator to run (mk demonstrates the wedge)")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	szs, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	if *alloc != "newkma" && *alloc != "cookie" {
		rows, err := bench.RunWorstCaseAny(*alloc, szs, *pages)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emitJSON("worstcase", rows)
		}
		bench.WorstCaseAnyTable(*alloc, rows).Fprint(os.Stdout)
		return nil
	}
	res, err := bench.RunWorstCase(szs, *pages)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("worstcase", res)
	}
	res.Figure().Fprint(os.Stdout)
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			return err
		}
		if err := res.Figure().WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("(series written to %s)\n", *csv)
	}
	fmt.Println("\nNote: the whole sweep ran on one system with no reboot and no sleeps —")
	fmt.Println("each size reused memory the previous size had fragmented (online coalescing).")
	return nil
}

func cmdDLM(args []string) error {
	fs := flag.NewFlagSet("dlm", flag.ExitOnError)
	cfg := bench.DefaultDLMConfig()
	fs.IntVar(&cfg.CPUs, "cpus", cfg.CPUs, "cluster nodes (one per CPU)")
	fs.IntVar(&cfg.OpsPerNode, "ops", cfg.OpsPerNode, "lock requests per node")
	res := fs.Uint64("resources", cfg.Resources, "resource id space")
	skew := fs.Float64("skew", cfg.ZipfSkew, "resource Zipf skew")
	seed := fs.Int64("seed", cfg.Seed, "workload seed")
	scale := fs.Bool("scale", false, "also sweep cluster sizes 1..8")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.Resources, cfg.ZipfSkew, cfg.Seed = *res, *skew, *seed
	out, err := bench.RunDLM(cfg)
	if err != nil {
		return err
	}
	var scaling []bench.DLMScaleRow
	if *scale {
		if scaling, err = bench.RunDLMScaling([]int{1, 2, 4, 8}, cfg.OpsPerNode/2); err != nil {
			return err
		}
	}
	if *jsonOut {
		return emitJSON("dlm", struct {
			Result  *bench.DLMResult
			Scaling []bench.DLMScaleRow `json:",omitempty"`
		}{out, scaling})
	}
	out.Table().Fprint(os.Stdout)
	fmt.Println("\nPaper (4-CPU DLM): per-CPU miss 2.1-7.8%, global miss 1.2-3.0%, combined 0.02-0.14%.")
	if scaling != nil {
		fmt.Println()
		bench.DLMScaleTable(scaling).Fprint(os.Stdout)
	}
	return nil
}

func cmdInsns(args []string) error {
	fs := flag.NewFlagSet("insns", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := bench.RunInsnCounts()
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("insns", rows)
	}
	bench.InsnTable(rows).Fprint(os.Stdout)
	return nil
}

func cmdAnalysis(args []string) error {
	fs := flag.NewFlagSet("analysis", flag.ExitOnError)
	ops := fs.Int("ops", 128, "operations to trace")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	old, new_, err := bench.RunAnalysis(*ops)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("analysis", struct {
			Old      []bench.AnalysisResult
			New      []bench.AnalysisResult
			HotLines []bench.HotLine
		}{old, new_, bench.HotLines()})
	}
	bench.AnalysisTable(old, new_).Fprint(os.Stdout)
	fmt.Println()
	bench.HotLineTable().Fprint(os.Stdout)
	return nil
}

func cmdAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	param := fs.String("param", "all", "target|split|radix|lazybuddy|tlb|all")
	jsonOut := fs.Bool("json", false, "emit the results as one JSON object keyed by parameter")
	if err := fs.Parse(args); err != nil {
		return err
	}
	collected := map[string]any{}
	run := func(p string) error {
		var rows any
		var tbl *bench.Table
		switch p {
		case "target":
			r, err := bench.AblateTarget([]int{1, 2, 5, 10, 20, 40}, 0.05)
			if err != nil {
				return err
			}
			rows, tbl = r, bench.TargetTable(r)
		case "split":
			r, err := bench.AblateSplitFreelist(0.05)
			if err != nil {
				return err
			}
			rows, tbl = r, bench.SplitTable(r)
		case "radix":
			r, err := bench.AblateRadix(40)
			if err != nil {
				return err
			}
			rows, tbl = r, bench.RadixTable(r)
		case "lazybuddy":
			r, err := bench.AblateLazyBuddy(0.05)
			if err != nil {
				return err
			}
			rows, tbl = r, bench.LazyTable(r)
		case "tlb":
			r, err := bench.AblateTLB(0.05)
			if err != nil {
				return err
			}
			rows, tbl = r, bench.TLBTable(r)
		default:
			return fmt.Errorf("unknown ablation %q", p)
		}
		if *jsonOut {
			collected[p] = rows
			return nil
		}
		tbl.Fprint(os.Stdout)
		fmt.Println()
		return nil
	}
	params := []string{*param}
	if *param == "all" {
		params = []string{"target", "split", "radix", "lazybuddy", "tlb"}
	}
	for _, p := range params {
		if err := run(p); err != nil {
			return err
		}
	}
	if *jsonOut {
		return emitJSON("ablate", collected)
	}
	return nil
}

func cmdAdaptive(args []string) error {
	fs := flag.NewFlagSet("adaptive", flag.ExitOnError)
	bursts := fs.Int("bursts", 400, "alloc/free bursts to run")
	burst := fs.Int("burst", 400, "allocations per burst (oscillation amplitude)")
	size := fs.Uint64("size", 128, "block size")
	jsonOut := fs.Bool("json", false, "emit the results and final Stats snapshots as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.RunAdaptive(*bursts, *burst, *size)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("adaptive", res)
	}
	res.Table().Fprint(os.Stdout)
	fmt.Println("\nThe fixed run is pinned to the paper's compile-time target; the adaptive run")
	fmt.Println("grows target until the burst amplitude fits the per-CPU cache, driving the")
	fmt.Println("miss rate toward the controller's setpoint (see DESIGN.md, adaptive targets).")
	return nil
}

func cmdCyclic(args []string) error {
	fs := flag.NewFlagSet("cyclic", flag.ExitOnError)
	cycles := fs.Int("cycles", 3, "day/night cycles to run")
	pages := fs.Int64("pages", 192, "physical pages (tight on purpose)")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.RunCyclic(*cycles, *pages)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("cyclic", res)
	}
	res.Table().Fprint(os.Stdout)
	fmt.Println("\nAn allocator without online coalescing cannot complete this cycle without")
	fmt.Println("a reboot between phases (see internal/mk's TestNoCoalescingAcrossSizes).")
	return nil
}

func cmdPressure(args []string) error {
	fs := flag.NewFlagSet("pressure", flag.ExitOnError)
	cpus := fs.Int("cpus", 4, "CPUs")
	nodes := fs.String("nodes", "1,2,4", "comma-separated node counts to sweep")
	pages := fs.String("pages", "96,64,48,32", "comma-separated physical pool sizes to sweep")
	rounds := fs.Int("rounds", 400, "allocation rounds per point")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nodeCounts, err := parseInts(*nodes)
	if err != nil {
		return err
	}
	pagesRaw, err := parseSizes(*pages)
	if err != nil {
		return err
	}
	pageCounts := make([]int64, len(pagesRaw))
	for i, p := range pagesRaw {
		pageCounts[i] = int64(p)
	}
	res, err := bench.RunPressure(*cpus, nodeCounts, pageCounts, *rounds)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("pressure", res)
	}
	res.Table().Fprint(os.Stdout)
	fmt.Println("\nEach point runs the same oversubscribed churn twice: \"nosleep\" counts every")
	fmt.Println("transient exhaustion as a failure; \"wait\" parks on the per-class wait queue")
	fmt.Println("and is woken by frees and reclaim progress (failures only after the bound).")
	return nil
}

func cmdFrag(args []string) error {
	fs := flag.NewFlagSet("frag", flag.ExitOnError)
	cycles := fs.Int("cycles", 3, "grow/churn/shrink/trim cycles per mode")
	pages := fs.Int64("pages", 4096, "physical pages")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.RunFrag(*cycles, *pages)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("frag", res)
	}
	res.Table().Fprint(os.Stdout)
	fmt.Println("\nEager backing unmaps as spans coalesce, so resident tracks live; lazy backing")
	fmt.Println("keeps freed spans' frames for reuse until a trim strips them, trading a larger")
	fmt.Println("transient footprint for commit-free reallocation (see DESIGN.md, virtual spans).")
	return nil
}

func cmdObjCache(args []string) error {
	fs := flag.NewFlagSet("objcache", flag.ExitOnError)
	sizes := fs.String("sizes", "64,256,1024", "comma-separated buffer sizes")
	pairs := fs.Int("pairs", 2000, "steady-state Allocb/Freeb pairs per point")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	szs, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	res, err := bench.RunObjCache(szs, *pairs)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("objcache", res)
	}
	res.Table().Fprint(os.Stdout)
	fmt.Println("\nThe cookie baseline re-initializes the triple on every allocb (the paper's")
	fmt.Println("\"nearly fixed code sequence\"); the named caches hand back the triple in the")
	fmt.Println("shape the last freeb left it, so the constructor — and the re-linking — are")
	fmt.Println("skipped on every warm Get (see DESIGN.md, typed object caches).")
	return nil
}

func cmdHarden(args []string) error {
	fs := flag.NewFlagSet("harden", flag.ExitOnError)
	sizes := fs.String("sizes", "64,256,1024", "comma-separated block sizes")
	pairs := fs.Int("pairs", 2000, "steady-state alloc/free pairs per point")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	szs, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	res, err := bench.RunHarden(szs, *pairs)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("harden", res)
	}
	res.Table().Fprint(os.Stdout)
	fmt.Println()
	res.StreamsTable().Fprint(os.Stdout)
	fmt.Println("\nThe hardened pair pays for canary writes, poison fills and verify-on-alloc;")
	fmt.Println("with Params.Harden nil every hook is a nil check and the pair is cycle-identical")
	fmt.Println("to the unhardened allocator (the STREAMS table is held equal to BENCH_7 by TestBaselinesReproduce).")
	return nil
}

func cmdProjection(args []string) error {
	fs := flag.NewFlagSet("projection", flag.ExitOnError)
	seconds := fs.Float64("seconds", 0.05, "virtual seconds per point")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := bench.RunProjection(*seconds)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("projection", rows)
	}
	bench.ProjectionTable(rows).Fprint(os.Stdout)
	return nil
}

func cmdTopology(args []string) error {
	fs := flag.NewFlagSet("topology", flag.ExitOnError)
	cpus := fs.Int("cpus", 8, "total CPUs (held fixed across the sweep; must be even)")
	nodes := fs.String("nodes", "1,2,4", "comma-separated node counts to sweep")
	seconds := fs.Float64("seconds", 0.02, "virtual seconds per point")
	size := fs.Uint64("size", 128, "block size")
	pairing := fs.String("pairing", "near", "near (producer and consumer adjacent) or cross (always another node)")
	interconnect := fs.Int64("interconnect", 0, "interconnect occupancy cycles per remote transaction (0 = default)")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	counts, err := parseInts(*nodes)
	if err != nil {
		return err
	}
	res, err := bench.RunTopology(*cpus, counts, *size, *seconds, *pairing, *interconnect)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("topology", res)
	}
	res.Table().Fprint(os.Stdout)
	fmt.Println("\nPartitioning the machine into nodes splits both the bus bandwidth and the")
	fmt.Println("slow-path pool locks; frees of remote blocks route home over the interconnect")
	fmt.Println("(remote frees), and dry home pools steal cached lists cross-node (steals).")
	return nil
}

func cmdScaling(args []string) error {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	cpus := fs.String("cpus", "2,4,8", "comma-separated CPU counts (each even)")
	nodes := fs.String("nodes", "1,2,4", "comma-separated node counts (sweep skips counts that do not divide the CPUs)")
	seconds := fs.Float64("seconds", 0.005, "virtual seconds per point")
	size := fs.Uint64("size", 128, "block size")
	lockFree := fs.Bool("lockfree", false, "sweep the optimistic axis instead: locked vs rseq+CAS fast paths, shards on")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cpuCounts, err := parseInts(*cpus)
	if err != nil {
		return err
	}
	nodeCounts, err := parseInts(*nodes)
	if err != nil {
		return err
	}
	if *lockFree {
		res, err := bench.RunScalingLockFree(cpuCounts, nodeCounts, *size, *seconds)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emitJSON("scaling-lockfree", res)
		}
		res.LockFreeTable().Fprint(os.Stdout)
		if lk, lf := res.PointLF(8, 4, "prodcons", false), res.PointLF(8, 4, "prodcons", true); lk != nil && lf != nil && lk.LockWaitCycles > 0 {
			wait := fmt.Sprintf("cut lock wait %.1fx (%d -> %d cycles)",
				float64(lk.LockWaitCycles)/float64(lf.LockWaitCycles), lk.LockWaitCycles, lf.LockWaitCycles)
			if lf.LockWaitCycles == 0 {
				wait = fmt.Sprintf("eliminated lock wait (%d -> 0 cycles)", lk.LockWaitCycles)
			}
			fmt.Printf("\n8 CPUs / 4 nodes, prodcons: lock-free paths %s and gained %.0f%% throughput\n",
				wait, 100*(lf.PairsPerSec/lk.PairsPerSec-1))
		}
		fmt.Println("\nBoth runs keep remote-free shards on; \"lockfree on\" swaps the per-CPU")
		fmt.Println("interrupt-masked paths for restartable sequences and the global freelists for")
		fmt.Println("CAS commits (restarts/retries are the cycles the optimism paid back).")
		return nil
	}
	res, err := bench.RunScaling(cpuCounts, nodeCounts, *size, *seconds)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("scaling", res)
	}
	res.Table().Fprint(os.Stdout)
	if routed, sharded := res.Point(8, 4, "prodcons", false), res.Point(8, 4, "prodcons", true); routed != nil && sharded != nil &&
		routed.Pairs > 0 && sharded.Pairs > 0 && sharded.RemotePuts > 0 {
		ratio := (float64(routed.RemotePuts) / float64(routed.Pairs)) /
			(float64(sharded.RemotePuts) / float64(sharded.Pairs))
		fmt.Printf("\n8 CPUs / 4 nodes, prodcons: shards cut remote putList trips %.1fx per pair\n", ratio)
	}
	fmt.Println("\nEach configuration runs with remote-free shards off (per-spill routing) and on")
	fmt.Println("(per-CPU staging, one batched putList per flush); \"lock wait\" and \"lock hold\"")
	fmt.Println("are the pool locks' spin and hold cycles from the EvLockWait accounting.")
	return nil
}

func cmdAll() error {
	fmt.Println("=== Figures 7 & 8: best-case scaling =================================")
	if err := cmdBestCase(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Figure 9: worst-case sweep =======================================")
	if err := cmdWorstCase(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Instruction counts ===============================================")
	if err := cmdInsns(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Analysis: allocb/freeb ===========================================")
	if err := cmdAnalysis(nil); err != nil {
		return err
	}
	fmt.Println("\n=== DLM miss rates ===================================================")
	if err := cmdDLM(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Cyclic day/night workload ========================================")
	if err := cmdCyclic(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Memory-pressure sweep ============================================")
	if err := cmdPressure(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Fragmentation triple: eager vs lazy backing ======================")
	if err := cmdFrag(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Typed object caches: ctor-skip win ===============================")
	if err := cmdObjCache(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Corruption-hardening overhead ====================================")
	if err := cmdHarden(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Projection: widening CPU/memory gap ==============================")
	if err := cmdProjection(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Ablations ========================================================")
	if err := cmdAblate(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Adaptive targets vs fixed heuristic ==============================")
	if err := cmdAdaptive(nil); err != nil {
		return err
	}
	fmt.Println("\n=== NUMA topology sweep ==============================================")
	if err := cmdTopology(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Scaling sweep: remote-free shards and lock accounting ============")
	if err := cmdScaling(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Serving simulation: per-phase tail latency =======================")
	return cmdServe(nil)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	cfg := bench.ServeDefaults()
	seed := fs.Uint64("seed", cfg.Seed, "trace seed")
	cpus := fs.Int("cpus", cfg.CPUs, "CPU count of the trace and the machines")
	sessions := fs.Int("sessions", cfg.Sessions, "steady-state open-session target")
	ops := fs.Int("ops", cfg.OpsPerPhase, "operations per phase")
	nodes := fs.String("nodes", "1,2,4", "comma-separated node counts")
	jsonOut := fs.Bool("json", false, "emit the result as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.Seed = *seed
	cfg.CPUs = *cpus
	cfg.Sessions = *sessions
	cfg.OpsPerPhase = *ops
	nodeCounts, err := parseInts(*nodes)
	if err != nil {
		return err
	}
	res, err := bench.RunServe(cfg, nodeCounts)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON("serve", res)
	}
	res.Table().Fprint(os.Stdout)
	return nil
}
