package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// metricDef is one reported metric. BENCHMARK.json carries the same
// tables; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the allocator or of the simulator
// sees. v_* are on the virtual clock (for the Native workloads, measured
// on the Sim twin of the same op stream); the rest are host measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"v_ops_per_s", "ops/vs", "higher", 0.06},
	{"v_alloc_p50_cycles", "cycles", "lower", 0.05},
	{"v_alloc_p99_cycles", "cycles", "lower", 0.08},
	{"v_alloc_p999_cycles", "cycles", "lower", 0.25},
	{"v_free_p99_cycles", "cycles", "lower", 0.15},
	{"resident_peak_mb", "MB", "lower", 0.05},
	{"host_ns_per_op", "ns", "lower", 0.25},
	{"host_rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer are the per-module metrics of the traced run, grouped by the
// layer (module) they observe. Every workload reports every name; a
// layer a workload never reaches reads 0.
var perLayer = []metricDef{
	{Name: "failed_ops_share", Unit: "ratio", Better: "lower"},

	{Name: "machine.insns_per_op", Unit: "insns", Better: "lower"},
	{Name: "machine.cache_miss_per_op", Unit: "count", Better: "lower"},
	{Name: "machine.bus_txns_per_op", Unit: "count", Better: "lower"},
	{Name: "machine.interconnect_txns_per_op", Unit: "count", Better: "lower"},
	{Name: "machine.remote_miss_per_op", Unit: "count", Better: "lower"},
	{Name: "machine.bus_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "machine.spin_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "machine.rseq_restarts_per_kop", Unit: "count", Better: "lower"},
	{Name: "machine.cas_retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "machine.cookie_alloc_insns", Unit: "insns", Better: "lower"},
	{Name: "machine.cookie_free_insns", Unit: "insns", Better: "lower"},
	{Name: "machine.cookie_insns_abs_error", Unit: "insns", Better: "lower"},
	{Name: "machine.sched_steps_per_op", Unit: "count", Better: "lower"},

	{Name: "percpu.alloc_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "percpu.free_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "percpu.depth_mean_cycles", Unit: "cycles", Better: "lower"},
	{Name: "percpu.depth_share_cycles", Unit: "ratio", Better: "higher"},

	{Name: "global.gets_per_kop", Unit: "count", Better: "lower"},
	{Name: "global.puts_per_kop", Unit: "count", Better: "lower"},
	{Name: "global.get_miss_rate", Unit: "ratio", Better: "lower"},
	{Name: "global.put_miss_rate", Unit: "ratio", Better: "lower"},
	{Name: "global.remote_puts_per_kop", Unit: "count", Better: "lower"},
	{Name: "global.shard_flushes_per_kop", Unit: "count", Better: "lower"},
	{Name: "global.node_steals_per_kop", Unit: "count", Better: "lower"},
	{Name: "global.lock_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "global.depth_mean_cycles", Unit: "cycles", Better: "lower"},
	{Name: "global.depth_p99_cycles", Unit: "cycles", Better: "lower"},
	{Name: "global.depth_share_cycles", Unit: "ratio", Better: "lower"},

	{Name: "page.carves_per_kop", Unit: "count", Better: "lower"},
	{Name: "page.frees_per_kop", Unit: "count", Better: "lower"},
	{Name: "page.block_gets_per_kop", Unit: "count", Better: "lower"},
	{Name: "page.lock_contended_share", Unit: "ratio", Better: "lower"},
	{Name: "page.depth_mean_cycles", Unit: "cycles", Better: "lower"},
	{Name: "page.depth_p99_cycles", Unit: "cycles", Better: "lower"},
	{Name: "page.depth_share_cycles", Unit: "ratio", Better: "lower"},

	{Name: "vmblk.span_allocs_per_kop", Unit: "count", Better: "lower"},
	{Name: "vmblk.span_frees_per_kop", Unit: "count", Better: "lower"},
	{Name: "vmblk.large_allocs_per_kop", Unit: "count", Better: "lower"},
	{Name: "vmblk.lock_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "vmblk.depth_mean_cycles", Unit: "cycles", Better: "lower"},
	{Name: "vmblk.depth_p99_cycles", Unit: "cycles", Better: "lower"},
	{Name: "vmblk.depth_share_cycles", Unit: "ratio", Better: "lower"},
	{Name: "physmem.pages_in_per_kop", Unit: "pages", Better: "lower"},
	{Name: "physmem.pages_out_per_kop", Unit: "pages", Better: "lower"},
	{Name: "physmem.map_failures", Unit: "count", Better: "lower"},

	{Name: "reclaim.full_count", Unit: "count", Better: "lower"},
	{Name: "reclaim.steps_per_kop", Unit: "count", Better: "lower"},
	{Name: "reclaim.waits", Unit: "count", Better: "lower"},
	{Name: "reclaim.pressure_transitions", Unit: "count", Better: "lower"},
	{Name: "reclaim.depth_p99_cycles", Unit: "cycles", Better: "lower"},
	{Name: "reclaim.depth_max_cycles", Unit: "cycles", Better: "lower"},
	{Name: "reclaim.depth_share_cycles", Unit: "ratio", Better: "lower"},

	{Name: "objcache.get_mean_cycles", Unit: "cycles", Better: "lower"},
	{Name: "objcache.ctor_skip_rate", Unit: "ratio", Better: "higher"},
	{Name: "objcache.carves_per_kop", Unit: "count", Better: "lower"},
	{Name: "objcache.sheds", Unit: "count", Better: "lower"},
	{Name: "objcache.depot_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "streams.allocb_mean_cycles", Unit: "cycles", Better: "lower"},
	{Name: "streams.allocb_p99_cycles", Unit: "cycles", Better: "lower"},
	{Name: "streams.freemsg_mean_cycles", Unit: "cycles", Better: "lower"},
	{Name: "streams.share_cycles", Unit: "ratio", Better: "lower"},
	{Name: "dlm.lock_mean_cycles", Unit: "cycles", Better: "lower"},
	{Name: "dlm.lock_p99_cycles", Unit: "cycles", Better: "lower"},
	{Name: "dlm.unlock_mean_cycles", Unit: "cycles", Better: "lower"},
	{Name: "dlm.share_cycles", Unit: "ratio", Better: "lower"},
	{Name: "serve.lane_stall_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.cross_cpu_op_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.opens", Unit: "count", Better: "higher"},
	{Name: "serve.alloc_retries", Unit: "count", Better: "lower"},
	{Name: "serve.evicted_buffers", Unit: "count", Better: "lower"},
	{Name: "serve.overlap_steady", Unit: "cpus", Better: "higher"},
	{Name: "serve.overlap_spike", Unit: "cpus", Better: "higher"},
	{Name: "serve.overlap_pressure", Unit: "cpus", Better: "higher"},

	{Name: "host_allocs_per_op", Unit: "allocs", Better: "lower"},
	{Name: "host_share.machine", Unit: "ratio", Better: "lower"},
	{Name: "host_share.core", Unit: "ratio", Better: "lower"},
	{Name: "host_share.objcache", Unit: "ratio", Better: "lower"},
	{Name: "host_share.streams", Unit: "ratio", Better: "lower"},
	{Name: "host_share.dlm", Unit: "ratio", Better: "lower"},
	{Name: "host_share.runtime", Unit: "ratio", Better: "lower"},
	{Name: "host_share.driver", Unit: "ratio", Better: "lower"},

	{Name: "trace.host_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.virtual_identical", Unit: "bool", Better: "higher"},
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func perK(num, ops uint64) float64 { return 1000 * ratio(num, ops) }

// endToEndValues assembles the untraced run's metrics: host numbers from
// m, virtual numbers from v (m itself for a Sim workload, the Sim twin
// for a Native one).
func endToEndValues(m, v *measurement) map[string]float64 {
	return map[string]float64{
		"setup_s":             m.setupSeconds(),
		"v_ops_per_s":         float64(v.ops) / v.vSeconds,
		"v_alloc_p50_cycles":  float64(v.rec.alloc.quantile(0.50)),
		"v_alloc_p99_cycles":  float64(v.rec.alloc.quantile(0.99)),
		"v_alloc_p999_cycles": float64(v.rec.alloc.quantile(0.999)),
		"v_free_p99_cycles":   float64(v.rec.free.quantile(0.99)),
		"resident_peak_mb":    float64(m.peakPages) * float64(m.pageBytes) / (1 << 20),
		"host_ns_per_op":      m.hostNsPerOp,
		"host_rss_peak_mb":    rssPeakMB(),
	}
}

// counterRates are the per-layer metrics that need only the public event
// counters (meaningful in Native too).
func counterRates(out map[string]float64, d *counters, ops uint64) {
	out["percpu.alloc_hit_rate"] = 1 - ratio(d[cRefills], d[cAllocs])
	out["percpu.free_hit_rate"] = 1 - ratio(d[cSpills], d[cFrees])
	out["global.gets_per_kop"] = perK(d[cGlobalGets], ops)
	out["global.puts_per_kop"] = perK(d[cGlobalPuts], ops)
	out["global.get_miss_rate"] = ratio(d[cGlobalRefills], d[cGlobalGets])
	out["global.put_miss_rate"] = ratio(d[cGlobalSpills], d[cGlobalPuts])
	out["global.remote_puts_per_kop"] = perK(d[cRemotePuts], ops)
	out["global.shard_flushes_per_kop"] = perK(d[cShardFlushes], ops)
	out["global.node_steals_per_kop"] = perK(d[cNodeSteals], ops)
	out["page.carves_per_kop"] = perK(d[cPageCarves], ops)
	out["page.frees_per_kop"] = perK(d[cPageFrees], ops)
	out["page.block_gets_per_kop"] = perK(d[cBlockGets], ops)
	out["page.lock_contended_share"] = ratio(d[cPageLockContended], d[cPageLockAcq])
	out["vmblk.span_allocs_per_kop"] = perK(d[cSpanAllocs], ops)
	out["vmblk.span_frees_per_kop"] = perK(d[cSpanFrees], ops)
	out["vmblk.large_allocs_per_kop"] = perK(d[cLargeAllocs], ops)
	out["physmem.pages_in_per_kop"] = perK(d[cPagesIn], ops)
	out["physmem.pages_out_per_kop"] = perK(d[cPagesOut], ops)
	out["physmem.map_failures"] = float64(d[cMapFailures])
	out["reclaim.full_count"] = float64(d[cReclaims])
	out["reclaim.steps_per_kop"] = perK(d[cReclaimSteps], ops)
	out["reclaim.waits"] = float64(d[cWaits])
	out["reclaim.pressure_transitions"] = float64(d[cPressureTransitions])
	out["objcache.ctor_skip_rate"] = ratio(d[cCacheSkips], d[cCacheGets])
	out["objcache.carves_per_kop"] = perK(d[cCacheCarves], ops)
	out["objcache.sheds"] = float64(d[cCacheSheds])
}

// virtualLayers are the per-layer metrics that need the virtual clock:
// the machine model's counters, wait shares, per-call costs and the depth
// ledger. t must be a traced Sim measurement.
func virtualLayers(out map[string]float64, t *measurement) error {
	d, ops, r := &t.delta, t.ops, t.rec
	cycles := d[cCycles]
	out["machine.insns_per_op"] = ratio(d[cInsns], ops)
	out["machine.cache_miss_per_op"] = ratio(d[cMisses], ops)
	out["machine.bus_txns_per_op"] = ratio(d[cBusTxns], ops)
	out["machine.interconnect_txns_per_op"] = ratio(d[cICTxns], ops)
	out["machine.remote_miss_per_op"] = ratio(d[cRemoteMisses], ops)
	out["machine.bus_wait_share"] = ratio(d[cBusWait], cycles)
	out["machine.spin_wait_share"] = ratio(d[cSpinWait], cycles)
	out["machine.rseq_restarts_per_kop"] = perK(d[cRestarts], ops)
	out["machine.cas_retries_per_kop"] = perK(d[cCASRetries], ops)
	out["machine.cookie_alloc_insns"] = float64(t.cookieAllocInsns)
	out["machine.cookie_free_insns"] = float64(t.cookieFreeInsns)
	out["machine.cookie_insns_abs_error"] = absDiff(t.cookieAllocInsns, 13) + absDiff(t.cookieFreeInsns, 13)
	out["machine.sched_steps_per_op"] = ratio(t.steps, ops)
	out["global.lock_wait_share"] = ratio(d[cGlobalLockSpin], cycles)
	out["vmblk.lock_wait_share"] = ratio(d[cVMLockSpin], cycles)
	out["objcache.depot_wait_share"] = ratio(d[cCacheDepotWait], cycles)

	// The depth ledger: every stamped alloc/free landed in exactly one
	// depth, so the five shares sum to one.
	var ledgerCycles, stamped uint64
	for dpt := range r.ledger {
		ledgerCycles += r.ledger[dpt].sum
	}
	for k := range r.calls {
		if callInfo[k].class != classOther {
			stamped += r.calls[k].cycles
		}
	}
	if ledgerCycles != stamped {
		return fmt.Errorf("depth ledger holds %d cycles, the stamped alloc/free calls %d", ledgerCycles, stamped)
	}
	var shareSum float64
	for dpt := layerDepth(0); dpt < numDepths; dpt++ {
		h := &r.ledger[dpt]
		name := depthNames[dpt]
		share := ratio(h.sum, ledgerCycles)
		shareSum += share
		out[name+".depth_share_cycles"] = share
		out[name+".depth_mean_cycles"] = h.mean()
		out[name+".depth_p99_cycles"] = float64(h.quantile(0.99))
	}
	out["reclaim.depth_max_cycles"] = float64(r.ledger[depthReclaim].max)
	if ledgerCycles > 0 && (shareSum < 0.999999 || shareSum > 1.000001) {
		return fmt.Errorf("depth shares sum to %.9f, want 1", shareSum)
	}

	var allCalls uint64
	moduleCycles := map[string]uint64{}
	for k := range r.calls {
		allCalls += r.calls[k].cycles
		moduleCycles[callInfo[k].module] += r.calls[k].cycles
	}
	mean := func(k callKind) float64 { return ratio(r.calls[k].cycles, r.calls[k].n) }
	out["objcache.get_mean_cycles"] = mean(kSessGet)
	out["streams.allocb_mean_cycles"] = mean(kAllocb)
	out["streams.allocb_p99_cycles"] = float64(r.callHist[kAllocb].quantile(0.99))
	out["streams.freemsg_mean_cycles"] = mean(kFreemsg)
	out["streams.share_cycles"] = ratio(moduleCycles["streams"], allCalls)
	out["dlm.lock_mean_cycles"] = mean(kDlmLock)
	out["dlm.lock_p99_cycles"] = float64(r.callHist[kDlmLock].quantile(0.99))
	out["dlm.unlock_mean_cycles"] = mean(kDlmUnlock)
	out["dlm.share_cycles"] = ratio(moduleCycles["dlm"], allCalls)
	return nil
}

func absDiff(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}

// virtuallyIdentical reports whether two Sim runs of the same plan saw
// the same virtual machine: schedule, clock, counters and latencies.
func virtuallyIdentical(a, b *measurement) bool {
	if a.schedHash != b.schedHash || a.vCycles != b.vCycles || a.ops != b.ops ||
		a.failed != b.failed || a.steps != b.steps || a.delta != b.delta {
		return false
	}
	return a.rec.alloc == b.rec.alloc && a.rec.free == b.rec.free && a.rec.calls == b.rec.calls
}

// rssPeakMB reads this process's resident-set high-water mark.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
