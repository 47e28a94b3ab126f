// Command kmemtorture drives the deterministic torture harness
// (internal/torture) from the command line: single seeded runs, the
// config matrix for CI smoke and nightly soak jobs, replay of committed
// repro artifacts, and corpus emission for the fuzz targets.
//
// Usage:
//
//	kmemtorture [-ops N] [-seed S] [-jitterseed J] [-seeds K]
//	            [-cpus N] [-nodes N] [-pages N]
//	            [-pressure] [-faults]
//	            [-matrix small|full] [-shrink] [-out dir]
//	            [-replay file.json] [-emit-corpus dir]
//	            [-plant shardflush|rightmerge|lfstackaba|stalepure|stalehead|tailoverlap|runstraddle] [-v]
//
// With -matrix, every config in the matrix runs under -seeds jitter
// seeds (J, J+1, ...). On failure the run's repro — shrunk first when
// -shrink is set — is written to -out and the exit status is 1, so a CI
// job can upload the artifact directory and a developer replays it with
// -replay.
//
// -plant arms one of the deliberately planted mutation bugs; it only
// has an effect in binaries built with -tags torturecheck and is how
// the committed repro artifacts under internal/torture/testdata were
// generated.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"kmem/internal/core"
	"kmem/internal/torture"
)

func main() {
	var (
		ops        = flag.Int("ops", 2000, "operations per run")
		seed       = flag.Uint64("seed", 1, "workload seed")
		jitterSeed = flag.Uint64("jitterseed", 0, "schedule-jitter seed (0 = conservative schedule)")
		seeds      = flag.Int("seeds", 1, "number of consecutive jitter seeds to run per config")
		cpus       = flag.Int("cpus", 4, "simulated CPUs")
		nodes      = flag.Int("nodes", 1, "NUMA nodes")
		pages      = flag.Int64("pages", 0, "physical pages (0 = config default)")
		pressure   = flag.Bool("pressure", false, "enable the watermark/reclaim model")
		faults     = flag.Bool("faults", false, "arm probabilistic fault injection")
		matrix     = flag.String("matrix", "", "run a config matrix: small or full")
		shrink     = flag.Bool("shrink", false, "delta-debug failing runs to minimal repros")
		outDir     = flag.String("out", "torture-failures", "directory for failing repro artifacts")
		replay     = flag.String("replay", "", "replay a saved repro file instead of generating a run")
		emitCorpus = flag.String("emit-corpus", "", "write fuzz-corpus files for the run(s) into this directory")
		plant      = flag.String("plant", "", "arm a planted bug (torturecheck builds): shardflush, rightmerge, lfstackaba, stalepure, stalehead, tailoverlap or runstraddle")
		verbose    = flag.Bool("v", false, "log every run, not just failures")
	)
	flag.Parse()

	if *plant != "" {
		bug, ok := bugByName(*plant)
		if !ok {
			fmt.Fprintf(os.Stderr, "kmemtorture: unknown -plant %q (want shardflush, rightmerge, lfstackaba, stalepure, stalehead, tailoverlap or runstraddle)\n", *plant)
			os.Exit(2)
		}
		if !core.TortureBugsAvailable {
			fmt.Fprintln(os.Stderr, "kmemtorture: -plant requires a binary built with -tags torturecheck")
			os.Exit(2)
		}
		core.SetTortureBug(bug, true)
		defer core.SetTortureBug(bug, false)
	}

	d := driver{shrink: *shrink, outDir: *outDir, corpusDir: *emitCorpus, verbose: *verbose}

	switch {
	case *replay != "":
		r, err := torture.LoadRepro(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kmemtorture: %v\n", err)
			os.Exit(2)
		}
		d.replay(r)
	case *matrix != "":
		var cfgs []torture.Config
		switch *matrix {
		case "small":
			cfgs = torture.MatrixSmall()
		case "full":
			cfgs = torture.MatrixFull()
		default:
			fmt.Fprintf(os.Stderr, "kmemtorture: unknown -matrix %q (want small or full)\n", *matrix)
			os.Exit(2)
		}
		for _, cfg := range cfgs {
			cfg.Ops = *ops
			cfg.Seed = *seed
			for s := 0; s < *seeds; s++ {
				cfg.JitterSeed = jitterAt(*jitterSeed, s)
				d.run(cfg)
			}
		}
	default:
		cfg := torture.Config{
			CPUs: *cpus, Nodes: *nodes, PhysPages: *pages,
			Ops: *ops, Seed: *seed,
			Pressure: *pressure, Faults: *faults,
		}
		for s := 0; s < *seeds; s++ {
			cfg.JitterSeed = jitterAt(*jitterSeed, s)
			d.run(cfg)
		}
	}

	fmt.Printf("kmemtorture: %d run(s), %d failure(s)\n", d.runs, d.failures)
	if d.failures > 0 {
		os.Exit(1)
	}
}

// bugByName maps a -plant flag value to its core planted-bug index.
func bugByName(name string) (int, bool) {
	switch name {
	case "shardflush":
		return core.TortureBugSkipShardFlush, true
	case "rightmerge":
		return core.TortureBugDropRightMerge, true
	case "lfstackaba":
		return core.TortureBugLFStackABA, true
	case "stalepure":
		return core.TortureBugStaleNodePure, true
	case "stalehead":
		return core.TortureBugPrepassStaleHead, true
	case "tailoverlap":
		return core.TortureBugTailOverlap, true
	case "runstraddle":
		return core.TortureBugRunStraddle, true
	}
	return 0, false
}

// jitterAt derives the s'th jitter seed from the base: seed 0 stays 0
// (the conservative schedule) only in slot 0; later slots perturb.
func jitterAt(base uint64, s int) uint64 {
	if base == 0 && s == 0 {
		return 0
	}
	return base + uint64(s)
}

type driver struct {
	shrink    bool
	outDir    string
	corpusDir string
	verbose   bool

	runs     int
	failures int
}

// artifactName is the filename a failing run's repro is saved under.
func artifactName(cfg torture.Config) string {
	return fmt.Sprintf("%s-seed%d-j%d.torture.json", cfg.Name(), cfg.Seed, cfg.JitterSeed)
}

func (d *driver) run(cfg torture.Config) {
	d.finish(torture.New(cfg))
}

func (d *driver) replay(r torture.Repro) {
	d.finish(r.Runner())
}

func (d *driver) finish(run *torture.Runner) {
	d.runs++
	cfg := run.Config()
	rep, err := run.Run()
	if err == nil {
		if d.verbose {
			fmt.Printf("PASS %s seed=%d jitter=%d ops=%d allocs=%d fails=%d sched=%016x\n",
				cfg.Name(), cfg.Seed, cfg.JitterSeed, rep.OpsExecuted, rep.Allocs, rep.AllocFails, rep.SchedHash)
		}
		d.emit(torture.ReproOf(run))
		return
	}

	d.failures++
	fmt.Printf("FAIL %s seed=%d jitter=%d: %v\n", cfg.Name(), cfg.Seed, cfg.JitterSeed, err)
	repro := torture.ReproOf(run)
	if d.shrink {
		repro = torture.ShrinkFailure(repro)
		fmt.Printf("     shrunk to %d op(s)\n", len(repro.Ops))
	}
	path := filepath.Join(d.outDir, artifactName(repro.Config))
	if err := os.MkdirAll(d.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "kmemtorture: %v\n", err)
		return
	}
	if err := repro.Save(path); err != nil {
		fmt.Fprintf(os.Stderr, "kmemtorture: %v\n", err)
		return
	}
	fmt.Printf("     repro: %s (replay with: kmemtorture -replay %s)\n", path, path)
	d.emit(repro)
}

// emit writes the run's fuzz-corpus encodings when -emit-corpus is set.
func (d *driver) emit(r torture.Repro) {
	if d.corpusDir == "" {
		return
	}
	tag := fmt.Sprintf("torture-%s-seed%d-j%d", r.Config.Name(), r.Config.Seed, r.Config.JitterSeed)
	ops := filepath.Join(d.corpusDir, "FuzzAllocatorOps", tag)
	if err := torture.WriteGoFuzzCorpusFile(ops, r.FuzzAllocatorOpsBytes()); err != nil {
		fmt.Fprintf(os.Stderr, "kmemtorture: %v\n", err)
		return
	}
	trace, err := r.TraceBytes()
	if err != nil {
		fmt.Fprintf(os.Stderr, "kmemtorture: trace encode: %v\n", err)
		return
	}
	tr := filepath.Join(d.corpusDir, "FuzzReadTrace", tag)
	if err := torture.WriteGoFuzzCorpusFile(tr, trace); err != nil {
		fmt.Fprintf(os.Stderr, "kmemtorture: %v\n", err)
		return
	}
	if d.verbose {
		fmt.Printf("     corpus: %s, %s\n", ops, tr)
	}
}
