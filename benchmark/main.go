// Command benchmark is the repository's benchmark: six closed-loop
// workloads over the allocator, its simulator and the subsystems built on
// it, measured from outside. See README.md next to this file.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints one JSON object as the last line of standard output: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
// of a traced repeat of the same workload and seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// spec is one workload's entry in the registry.
type spec struct {
	name   string
	why    string
	mk     func() workload
	native bool
	// opsPerSecond is the frozen op rate: a run of --seconds s executes
	// opsPerSecond*s ops in its timed window, never a wall-clock window.
	// Calibrated once on the 2-core reference box so that s seconds of ops
	// take about s seconds there.
	opsPerSecond uint64
}

var specs = []spec{
	{name: "churn", mk: newChurn, opsPerSecond: 5_000_000,
		why: "per-CPU layer does ~100% of the work (Fig. 7 best case): shows fast-path and simulator-floor changes, bypasses layers 2-4"},
	{name: "prodcons", mk: newProdcons, opsPerSecond: 1_250_000,
		why: "alloc on one CPU, free on another across 2 nodes: the global layer, shards and CAS stacks carry every block; churn bypasses them"},
	{name: "sweep", mk: newSweep, opsPerSecond: 1_380_000,
		why: "Fig. 9 worst case from a cold start: fill 7/8 of memory per size then free all, so page/vmblk coalescing and physmem do most cycles"},
	{name: "serve", mk: newServe, opsPerSecond: 168_000,
		why: "session trace (objcache, streams, dlm, core, reclaim) on overlapping per-CPU lanes; the only workload where pressure and the tail matter"},
	{name: "native_churn", mk: newNativeChurn, native: true, opsPerSecond: 20_000_000,
		why: "host cost of the real concurrent library's per-CPU fast path (Native build, real atomics); the global layer stays idle"},
	{name: "native_handoff", mk: newNativeHandoff, native: true, opsPerSecond: 18_000_000,
		why: "same Native build with every block freed on another CPU handle: its global layer (real mutexes) carries every block; native_churn predicts no change"},
}

// twinOps is the op count of a Native workload's Sim twin: Native mode has
// no virtual clock, and every untraced run must report every end-to-end
// metric, so a Native workload's v_* metrics come from the same workload
// code run once more on a Sim machine of G CPUs.
const twinOps = 2_000_000

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// nativeWorkers is G, the number of CPU handles a Native workload drives.
// One goroutine takes their steps in turn (env.runPhase), so G does not
// depend on the host.
const nativeWorkers = 2

// runSeconds is the run length BENCHMARK.json fixes for the driver.
const runSeconds = 8

// benchmarkContract is the content of BENCHMARK.json.
type benchmarkContract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDesc `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []perLayerDef  `json:"per_layer"`
}

type workloadDesc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// perLayerDef is a metricDef without the bound key, which per-layer
// metrics do not have.
type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func contract() benchmarkContract {
	c := benchmarkContract{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, sp := range specs {
		c.Workloads = append(c.Workloads, workloadDesc{sp.name, sp.why})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, perLayerDef{d.Name, d.Unit, d.Better})
	}
	return c
}

// result is the contract's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the fuller account written next to the span file.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	TimedOps  uint64             `json:"timed_ops"`
	Workers   int                `json:"workers"`
	SchedHash string             `json:"sched_hash,omitempty"`
	Samples   map[string]uint64  `json:"samples"`
	Setups    [][]float64        `json:"setup_pieces_s"`
	SliceNs   []float64          `json:"host_ns_per_op_slices"`
	Metrics   []reportedMetric   `json:"metrics"`
	Problems  []string           `json:"problems"`
	Extra     map[string]float64 `json:"extra,omitempty"`
}

type reportedMetric struct {
	metricDef
	Value float64 `json:"value"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	outDir   string // where the span file and the report go: benchmark/out
	small    bool   // set by tests only: a few thousand ops on shrunken machines (plan.small)
}

// smallDivisor is how much shorter than a --seconds 1 run a test run is.
const smallDivisor = 500

func main() {
	o := options{outDir: filepath.Join("benchmark", "out")}
	var checkRepeat bool
	flag.StringVar(&o.workload, "workload", "", "workload name (churn, prodcons, sweep, serve, native_churn, native_handoff)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the workload generators")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "run length: the timed window executes opsPerSecond*seconds ops")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced repeat, per-layer metrics")
	flag.BoolVar(&checkRepeat, "check-repeat", false, "run every workload twice on one seed and once on another; check repeatability")
	describe := flag.Bool("describe", false, "print the benchmark's contract (the content of BENCHMARK.json) and exit")
	flag.Parse()

	if *describe {
		b, err := json.MarshalIndent(contract(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		fmt.Println(string(b))
		return
	}

	if checkRepeat {
		if err := runCheckRepeat(o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	printReport(rep)
	if err := writeReport(o.outDir, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation: the untraced measurement, or the untraced
// reference plus its traced repeat.
func run(o options) (*result, *report, error) {
	sp := findSpec(o.workload)
	if sp == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return nil, nil, errors.New("need --seconds >= 1 and --trace 0 or 1")
	}
	p := plan{
		workload: sp.name,
		seed:     o.seed,
		timedOps: sp.opsPerSecond * uint64(o.seconds),
		workers:  nativeWorkers,
		small:    o.small,
	}
	twin := p
	twin.twin = true
	twin.timedOps = twinOps
	if o.small {
		p.timedOps /= smallDivisor
		twin.timedOps /= smallDivisor
	}

	rep := &report{Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace == 1,
		TimedOps: p.timedOps, Workers: p.workers, Samples: map[string]uint64{}, Extra: map[string]float64{}}
	var problems []string
	collect := func(ms ...*measurement) {
		for _, m := range ms {
			for _, pr := range m.problems {
				if !slices.Contains(problems, pr) { // the reference and the traced run fail alike
					problems = append(problems, pr)
				}
			}
			for k, v := range m.extra {
				rep.Extra[k] = v
			}
		}
	}

	var values map[string]float64
	var defs []metricDef
	var main *measurement
	if o.trace == 0 {
		defs = endToEnd
		m, err := measure(sp.mk, &p, true)
		if err != nil {
			return nil, nil, err
		}
		v := m
		if sp.native {
			if v, err = measure(sp.mk, &twin, false); err != nil {
				return nil, nil, err
			}
			collect(v)
		}
		collect(m)
		main = m
		values = endToEndValues(m, v)
		rep.SchedHash = fmt.Sprintf("%016x", v.schedHash)
		rep.Samples["v_alloc"] = v.rec.alloc.n
		rep.Samples["v_free"] = v.rec.free.n
	} else {
		defs = perLayer
		// The untraced reference first, then the same plan traced.
		u, err := measure(sp.mk, &p, false)
		if err != nil {
			return nil, nil, err
		}
		tp := p
		tp.traced, tp.profile = !sp.native, true
		t, err := measure(sp.mk, &tp, false)
		if err != nil {
			return nil, nil, err
		}
		collect(u, t)
		main = t
		values = map[string]float64{}
		counterRates(values, &t.delta, t.ops)
		for k, v := range rep.Extra {
			values[k] = v
		}
		for _, mod := range hostShareModules {
			values["host_share."+mod] = t.hostShare[mod]
		}
		values["failed_ops_share"] = ratio(t.failed, t.ops)
		values["host_allocs_per_op"] = float64(u.mallocs) / float64(u.ops)
		values["trace.host_overhead_share"] = t.wall.Seconds()/u.wall.Seconds() - 1
		// Everything on the virtual clock — the machine model's counters,
		// the depth ledger, the spans — exists for Sim workloads only; a
		// Native workload's traced run is its profiled run and these read 0.
		if !sp.native {
			if err := virtualLayers(values, t); err != nil {
				problems = append(problems, err.Error())
			}
			if virtuallyIdentical(u, t) {
				values["trace.virtual_identical"] = 1
			} else {
				problems = append(problems, "the traced run's virtual results differ from the untraced run's")
			}
			rep.SchedHash = fmt.Sprintf("%016x", t.schedHash)
			rep.Samples["v_alloc"] = t.rec.alloc.n
			rep.Samples["v_free"] = t.rec.free.n
			if err := writeTraceFile(o.outDir, sp.name, o.seed, t.rec.spans); err != nil {
				return nil, nil, err
			}
		}
	}
	rep.Samples["host_ns_per_op_slices"] = uint64(len(main.sliceNs))
	rep.Setups, rep.SliceNs = main.setups, main.sliceNs
	rep.Problems = problems

	res := &result{Correct: len(problems) == 0, Attempted: main.ops, Failed: main.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		rep.Metrics = append(rep.Metrics, reportedMetric{metricDef: d, Value: v})
	}
	return res, rep, nil
}

// printReport writes the human-readable table to standard error, so
// standard output stays the one JSON line.
func printReport(r *report) {
	w := os.Stderr
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  traced %v  timed ops %d  workers %d  sched hash %s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.TimedOps, r.Workers, r.SchedHash)
	for _, m := range r.Metrics {
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*m.Bound)
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-7s (%s is better%s)\n", m.Name, m.Value, m.Unit, m.Better, bound)
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  samples %-28s %d\n", k, r.Samples[k])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

func writeReport(dir string, r *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create report directory: %w", err)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-trace%d.json", r.Workload, boolInt(r.Traced))
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}
