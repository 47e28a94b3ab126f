// Package torture is the deterministic concurrency-torture harness, in
// the spirit of rcutorture: seeded workloads driven over the simulated
// multiprocessor under seeded schedule perturbation, with a differential
// shadow oracle checked after every operation and delta-debugged minimal
// repros on failure.
//
// Everything is a pure function of the Config: the workload seed
// materializes the op sequence, the jitter seed selects the interleaving
// (machine.JitterConfig), and the fault seed drives injection — so a
// failing run is named completely by its Config + ops, serialized as a
// Repro (repro.go) that `kmemtorture -replay` re-executes bit for bit.
package torture

import (
	"fmt"
	"strings"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/faultpoint"
	"kmem/internal/harden"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

// Config names one torture run exactly. The zero value of every field
// but the seeds selects a default (see withDefaults); the whole struct
// round-trips through JSON as part of a Repro.
type Config struct {
	CPUs  int `json:"cpus"`
	Nodes int `json:"nodes"`

	MemBytes  uint64 `json:"mem_bytes"`
	PhysPages int64  `json:"phys_pages"`

	// Ops is the number of operations to materialize from Seed.
	Ops  int    `json:"ops"`
	Seed uint64 `json:"seed"`
	// JitterSeed selects the schedule perturbation; 0 runs the
	// conservative (unjittered) schedule.
	JitterSeed uint64 `json:"jitter_seed,omitempty"`

	// Pressure enables the watermark/reclaim model (with a tight
	// physical-page budget so the watermarks are actually crossed).
	Pressure bool `json:"pressure,omitempty"`
	// Faults arms probabilistic fault injection at all three exhaustion
	// seams, driven by FaultSeed/FaultProb.
	Faults    bool    `json:"faults,omitempty"`
	FaultSeed int64   `json:"fault_seed,omitempty"`
	FaultProb float64 `json:"fault_prob,omitempty"`

	Adaptive bool `json:"adaptive,omitempty"`
	// Lazy selects the virtual-span backing model (core.Params.LazySpans):
	// spans keep VA reserved with physical frames committed on demand. The
	// oracle then also enforces the residency invariant chain
	// live ≤ resident ≤ reserved after every operation, and the end-of-run
	// audit recommits a decommitted span to prove scrubbed pages never
	// read back dirty.
	Lazy bool `json:"lazy,omitempty"`
	// ObjCache drives a typed object cache (internal/objcache) over the
	// allocator alongside the heap workload: OpCacheGet/OpCachePut ops
	// enter the mix, every Get is checked for constructed state, every
	// held object is mark-stamped against double hand-outs, and the
	// end-of-run audit destroys the cache and proves every construction
	// was undone (ctors == dtors) and every buffer carved was released
	// (carves == releases) before the leak check. Under Harden the cache
	// is hardened too: it re-runs the ctor on every magazine Get.
	ObjCache bool `json:"objcache,omitempty"`
	// Harden runs the allocator with the corruption-hardening layer on
	// (internal/harden: redzones, poison auditing, quarantine). With no
	// Plant the policy is panic, so any detection under the clean
	// workload is a false positive that aborts the run.
	Harden bool `json:"harden,omitempty"`
	// Plant arms one self-contained planted corruption — "overrun",
	// "doublefree" or "latewrite" — fired at the midpoint of the op
	// sequence. Requires Harden; the policy becomes
	// quarantine-and-continue and the end-of-run audit demands the plant
	// was detected, attributed to its "plant:" site tags, and contained
	// without leaking quarantined pages. The plant allocates its victim
	// directly (outside the shadow model and the workload RNG streams),
	// so the surrounding op sequence is byte-identical to the plant-free
	// run with the same seeds. With ObjCache the "latewrite" victim is a
	// cache object, which the cache then pins.
	Plant string `json:"plant,omitempty"`

	// Rseq runs the per-CPU layers on restartable sequences instead of
	// interrupt-disable sections (core.Params.Rseq): each CPU's one
	// section guards core's caches and the torture object cache's
	// magazines alike.
	Rseq bool `json:"rseq,omitempty"`
	// LockFree rebuilds the global layer on CAS freelists with the
	// tagged ABA guard (core.Params.LockFree).
	LockFree bool `json:"lockfree,omitempty"`
	// RestartStorm arms the adversarial restart mode: with a nonzero
	// JitterSeed, restartable sequences abort at every other
	// opportunity (machine.JitterConfig.RestartEvery = 2), hammering
	// the retry paths instead of the happy ones.
	RestartStorm bool `json:"restart_storm,omitempty"`

	// Serve draws the op sequence from session-lifetime traces instead
	// of the uniform random mix: sessions open as a burst of allocations
	// on a home CPU, churn, and close as a burst of frees — often on a
	// different CPU and biased toward the oldest live handles — under a
	// day/night population wave. The lifetime skew concentrates frees of
	// remotely-allocated blocks, hammering the shard, magazine-overflow
	// and cross-CPU drain paths that uniform random traffic rarely lines
	// up.
	Serve bool `json:"serve,omitempty"`

	// WorkingSet caps the live handles; allocs at the cap are skipped.
	WorkingSet int `json:"working_set,omitempty"`
	// MaxSize bounds request sizes (covers the large path when > 4096).
	MaxSize uint32 `json:"max_size,omitempty"`
	// CheckEvery runs the full consistency audit every N executed ops.
	CheckEvery int `json:"check_every,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.CPUs <= 0 {
		c.CPUs = 4
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.MemBytes == 0 {
		c.MemBytes = 32 << 20
	}
	if c.PhysPages == 0 {
		c.PhysPages = 2048
		if c.Pressure || c.Faults {
			// Tight budget: the watermarks and exhaustion paths must
			// actually be crossed, not just configured.
			c.PhysPages = 512
		}
	}
	if c.Ops <= 0 {
		c.Ops = 2000
	}
	if c.FaultProb == 0 {
		c.FaultProb = 0.02
	}
	if c.WorkingSet <= 0 {
		c.WorkingSet = 96
	}
	if c.MaxSize == 0 {
		c.MaxSize = 3*4096 + 100
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 128
	}
	return c
}

// Name returns a short human-readable tag for the config, used in test
// names and artifact filenames.
func (c Config) Name() string {
	n := fmt.Sprintf("c%dn%d", c.CPUs, c.Nodes)
	if c.Pressure {
		n += "-pressure"
	}
	if c.Faults {
		n += "-faults"
	}
	if c.Adaptive {
		n += "-adaptive"
	}
	if c.Lazy {
		n += "-lazy"
	}
	if c.ObjCache {
		n += "-objcache"
	}
	if c.Harden {
		n += "-harden"
	}
	if c.Rseq {
		n += "-rseq"
	}
	if c.LockFree {
		n += "-lockfree"
	}
	if c.RestartStorm {
		n += "-storm"
	}
	if c.Serve {
		n += "-serve"
	}
	if c.Plant != "" {
		n += "-plant-" + c.Plant
	}
	return n
}

// Failure is the oracle's verdict on a failing run.
type Failure struct {
	// OpIndex is the index into the materialized op list of the op whose
	// postcondition failed, or -1 for the end-of-run audit (full free,
	// drain, consistency, leak check).
	OpIndex int
	Msg     string
}

func (f *Failure) Error() string {
	if f.OpIndex < 0 {
		return fmt.Sprintf("torture: end-of-run audit: %s", f.Msg)
	}
	return fmt.Sprintf("torture: op %d: %s", f.OpIndex, f.Msg)
}

// Report summarizes a completed run (failing or not).
type Report struct {
	OpsExecuted int
	Allocs      uint64
	AllocFails  uint64
	Frees       uint64
	Drains      uint64
	Skipped     uint64
	CacheGets   uint64
	CachePuts   uint64
	// Cache is the torture cache's counters after the end-of-run audit
	// destroyed it (zero without ObjCache).
	Cache objcache.Stats
	// SchedHash is the machine's schedule hash: the identity of the
	// interleaving this run executed.
	SchedHash uint64
}

// Runner executes one materialized op sequence under one Config.
type Runner struct {
	cfg Config
	ops []Op
}

// New materializes cfg's op sequence from its workload seed.
func New(cfg Config) *Runner {
	cfg = cfg.withDefaults()
	return &Runner{cfg: cfg, ops: generate(cfg)}
}

// Replay wraps an explicit op sequence (a shrunk repro) under cfg.
func Replay(cfg Config, ops []Op) *Runner {
	return &Runner{cfg: cfg.withDefaults(), ops: ops}
}

// Config returns the runner's (defaulted) config.
func (r *Runner) Config() Config { return r.cfg }

// Ops returns the materialized op sequence.
func (r *Runner) Ops() []Op { return r.ops }

// Run executes the op sequence on a fresh simulated machine and checks
// the shadow oracle after every operation. The returned error, if any,
// is a *Failure. Sim mode only: the harness relies on the deterministic
// scheduler (Native concurrency is covered by the -race tests).
func (r *Runner) Run() (Report, error) {
	cfg := r.cfg
	mcfg := machine.DefaultConfig()
	mcfg.NumCPUs = cfg.CPUs
	mcfg.Nodes = cfg.Nodes
	mcfg.MemBytes = cfg.MemBytes
	mcfg.PhysPages = cfg.PhysPages
	m := machine.New(mcfg)
	if cfg.JitterSeed != 0 {
		jc := &machine.JitterConfig{Seed: cfg.JitterSeed}
		if cfg.RestartStorm {
			jc.RestartEvery = 2
		}
		m.SetScheduleJitter(jc)
	}
	m.EnableSchedHash()

	p := core.Params{
		Poison:    true,
		LazySpans: cfg.Lazy,
		Adaptive:  cfg.Adaptive,
		Rseq:      cfg.Rseq,
		LockFree:  cfg.LockFree,
		// Keep blocked allocations cheap in virtual time: a few short
		// waits, then the typed error (a legal outcome for the oracle).
		Wait: &core.WaitConfig{MaxWaits: 3, BaseBackoffCycles: 512, MaxBackoffCycles: 8192},
	}
	if cfg.Pressure {
		p.Pressure = &core.PressureConfig{}
	}
	if cfg.Faults {
		fs := faultpoint.New(cfg.FaultSeed)
		spec := faultpoint.Spec{Prob: cfg.FaultProb}
		fs.Arm(core.FaultPhysMap, spec)
		fs.Arm(core.FaultVmblkCarve, spec)
		fs.Arm(core.FaultPagePoolRefill, spec)
		p.Faults = fs
	}
	var planted []harden.Report
	if cfg.Harden {
		hcfg := &harden.Config{Policy: harden.PolicyPanic}
		if cfg.Plant != "" {
			hcfg.Policy = harden.PolicyQuarantine
			hcfg.OnReport = func(rep harden.Report) { planted = append(planted, rep) }
		}
		p.Harden = hcfg
	} else if cfg.Plant != "" {
		return Report{}, fmt.Errorf("torture: plant %q requires Harden", cfg.Plant)
	}
	a, err := core.New(m, p)
	if err != nil {
		return Report{}, fmt.Errorf("torture: allocator: %w", err)
	}

	ora := newOracle(m, a, cfg)
	ora.planted = &planted
	if cfg.ObjCache {
		// The torture cache: ctor constructs the pattern, dtor demands it
		// back. The dtor runs inside sheds and drains where no error can
		// surface, so violations latch into the oracle and fail the next
		// op's postcondition (or the end audit).
		ctor := func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) {
			mem.Fill(obj, objCacheSize, objCachePattern)
		}
		dtor := func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) {
			if off, ok := mem.CheckFill(obj, objCacheSize, objCachePattern); !ok && ora.dtorFail == "" {
				ora.dtorFail = fmt.Sprintf("dtor: object %#x byte %d not constructed at release", obj, off)
			}
		}
		kc, err := objcache.New(m, a, "torture:obj",
			objCacheSize, 8, ctor, dtor, objcache.Opts{})
		if err != nil {
			return Report{}, fmt.Errorf("torture: objcache: %w", err)
		}
		ora.cache = kc
	}
	var rep Report

	// Split the op list by CPU; each simulated CPU walks its own
	// subsequence, and the scheduler (plus jitter) chooses the global
	// interleaving. The simulator is single-goroutine, so the shared
	// oracle state needs no locking.
	perCPU := make([][]int, cfg.CPUs)
	for i, op := range r.ops {
		cpu := int(op.CPU) % cfg.CPUs
		perCPU[cpu] = append(perCPU[cpu], i)
	}
	cursors := make([]int, cfg.CPUs)
	var failure *Failure
	m.Run(func(c *machine.CPU) bool {
		if failure != nil {
			return false
		}
		id := c.ID()
		if cursors[id] >= len(perCPU[id]) {
			return false
		}
		i := perCPU[id][cursors[id]]
		cursors[id]++
		rep.OpsExecuted++
		failure = guard(i, func() *Failure {
			if f := r.exec(c, a, ora, &rep, i); f != nil || rep.OpsExecuted%cfg.CheckEvery != 0 {
				return f
			}
			// Quiescent in the simulator: operations run to completion,
			// so between ops every structure is in a consistent state.
			if err := a.CheckConsistency(); err != nil {
				return &Failure{OpIndex: i, Msg: err.Error()}
			}
			return nil
		})
		return failure == nil
	})

	if failure == nil {
		failure = guard(-1, func() *Failure { return r.endAudit(m, a, ora, &rep) })
	}
	rep.SchedHash = m.SchedHash()
	if failure != nil {
		return rep, failure
	}
	return rep, nil
}

// guard runs f and returns a panic raised inside it, an allocator's
// assertion say, as the Failure of op i (-1: the end-of-run audit), so a
// run that panics shrinks and replays like any other failing run. The
// run stops there: the panicking CPU may hold locks it never released.
func guard(i int, f func() *Failure) (fail *Failure) {
	defer func() {
		if v := recover(); v != nil {
			fail = &Failure{OpIndex: i, Msg: fmt.Sprintf("panic: %v", v)}
		}
	}()
	return f()
}

// exec runs one op and its oracle postconditions; nil means healthy.
func (r *Runner) exec(c *machine.CPU, a *core.Allocator, ora *oracle, rep *Report, i int) *Failure {
	if r.cfg.Plant != "" && !ora.plantDone && i == len(r.ops)/2 {
		ora.plantDone = true
		if msg := r.plant(c, a, ora); msg != "" {
			return &Failure{OpIndex: i, Msg: msg}
		}
	}
	op := r.ops[i]
	switch op.Kind {
	case OpAlloc, OpAllocWait:
		if len(ora.live) >= r.cfg.WorkingSet {
			rep.Skipped++
			return nil
		}
		size := uint64(op.Size)
		if size == 0 {
			size = 1
		}
		var (
			addr arena.Addr
			err  error
		)
		if op.Kind == OpAllocWait {
			addr, err = a.AllocWait(c, size)
		} else {
			addr, err = a.Alloc(c, size)
		}
		if err != nil {
			// Exhaustion (real or injected) is a legal outcome; the
			// oracle only demands the allocator stay consistent.
			rep.AllocFails++
			return nil
		}
		rep.Allocs++
		if msg := ora.onAlloc(addr, size, i); msg != "" {
			return &Failure{OpIndex: i, Msg: msg}
		}
	case OpFree:
		if len(ora.live) == 0 {
			rep.Skipped++
			return nil
		}
		j := int(op.Arg) % len(ora.live)
		h := ora.live[j]
		if msg := ora.beforeFree(h); msg != "" {
			return &Failure{OpIndex: i, Msg: msg}
		}
		a.Free(c, h.addr, h.size)
		ora.remove(j)
		rep.Frees++
	case OpDrain:
		a.DrainCPU(c, int(op.Arg)%r.cfg.CPUs)
		rep.Drains++
	case OpCacheGet:
		if ora.cache == nil || len(ora.cached) >= r.cfg.WorkingSet {
			rep.Skipped++
			return nil
		}
		obj, err := ora.cache.Get(c)
		if err != nil {
			// A failed carve under faults or exhaustion is legal.
			rep.AllocFails++
			return nil
		}
		rep.CacheGets++
		if msg := ora.onCacheGet(obj, i); msg != "" {
			return &Failure{OpIndex: i, Msg: msg}
		}
	case OpCachePut:
		if ora.cache == nil || len(ora.cached) == 0 {
			rep.Skipped++
			return nil
		}
		j := int(op.Arg) % len(ora.cached)
		co := ora.cached[j]
		if msg := ora.beforeCachePut(co); msg != "" {
			return &Failure{OpIndex: i, Msg: msg}
		}
		ora.cache.Put(c, co.obj)
		ora.removeCached(j)
		rep.CachePuts++
	default:
		return &Failure{OpIndex: i, Msg: fmt.Sprintf("unknown op kind %d", op.Kind)}
	}
	// Destructors fire inside sheds under pressure; surface the first
	// latched violation at the op that exposed it.
	if ora.dtorFail != "" {
		return &Failure{OpIndex: i, Msg: ora.dtorFail}
	}
	if msg := ora.residency(); msg != "" {
		return &Failure{OpIndex: i, Msg: msg}
	}
	return nil
}

// plant fires the armed corruption. The victim is allocated directly —
// never entering the shadow model or perturbing the workload RNG streams
// — and each step runs under a "plant:" site tag so the end-of-run audit
// can check the detection's provenance attribution.
func (r *Runner) plant(c *machine.CPU, a *core.Allocator, ora *oracle) string {
	const size = 256
	mem := ora.m.Mem()
	if ora.cache != nil && r.cfg.Plant == "latewrite" {
		return plantCacheLateWrite(c, a, ora, mem)
	}
	a.SetHardenSite(c, "plant:alloc")
	b, err := a.Alloc(c, size)
	a.SetHardenSite(c, "")
	if err != nil {
		return fmt.Sprintf("plant %s: victim alloc: %v", r.cfg.Plant, err)
	}
	switch r.cfg.Plant {
	case "overrun":
		// One byte past the usable capacity lands on the first canary
		// byte; the free must catch it.
		mem.Fill(b+arena.Addr(a.RoundedSize(size)), 1, 0x5a)
		a.SetHardenSite(c, "plant:free")
		a.Free(c, b, size)
		a.SetHardenSite(c, "")
	case "doublefree":
		a.Free(c, b, size)
		a.SetHardenSite(c, "plant:free")
		a.Free(c, b, size)
		a.SetHardenSite(c, "")
	case "latewrite":
		a.Free(c, b, size)
		// A write into the poison region after the free; the LIFO
		// reallocation below must detect it and serve a different block.
		mem.Fill(b+16, 4, 0x77)
		a.SetHardenSite(c, "plant:alloc")
		nb, err := a.Alloc(c, size)
		a.SetHardenSite(c, "")
		if err != nil {
			return fmt.Sprintf("plant latewrite: realloc: %v", err)
		}
		if nb == b {
			return fmt.Sprintf("plant latewrite: scribbled block %#x re-served", b)
		}
		a.Free(c, nb, size)
	default:
		return fmt.Sprintf("unknown plant %q", r.cfg.Plant)
	}
	return ""
}

// plantCacheLateWrite writes into a resting cache object's poison: the
// cache's next Get of it must detect the write, pin the object and
// serve another.
func plantCacheLateWrite(c *machine.CPU, a *core.Allocator, ora *oracle, mem *arena.Arena) string {
	k := ora.cache
	a.SetHardenSite(c, "plant:alloc")
	obj, err := k.Get(c)
	a.SetHardenSite(c, "")
	if err != nil {
		return fmt.Sprintf("plant latewrite: victim get: %v", err)
	}
	k.Put(c, obj)
	mem.Fill(obj+16, 4, 0x77)
	a.SetHardenSite(c, "plant:alloc")
	nb, err := k.Get(c)
	a.SetHardenSite(c, "")
	if err != nil {
		return fmt.Sprintf("plant latewrite: cache re-get: %v", err)
	}
	if nb == obj {
		return fmt.Sprintf("plant latewrite: scribbled cache object %#x re-served", obj)
	}
	k.Put(c, nb)
	ora.pinned = obj
	return ""
}

// plantKinds maps a plant name to the corruption kind its detection must
// report.
var plantKinds = map[string]harden.Kind{
	"overrun":    harden.KindOverrun,
	"doublefree": harden.KindDoubleFree,
	"latewrite":  harden.KindUseAfterFree,
}

// auditPlant verifies the armed plant was detected, attributed, and
// contained; "" means all three hold.
func (r *Runner) auditPlant(ora *oracle, q core.QuarantineStats) string {
	want := plantKinds[r.cfg.Plant]
	var hit *harden.Report
	for i := range *ora.planted {
		if (*ora.planted)[i].Kind == want {
			hit = &(*ora.planted)[i]
			break
		}
	}
	if hit == nil {
		return fmt.Sprintf("plant %s: no %v report filed (%d reports total)",
			r.cfg.Plant, want, len(*ora.planted))
	}
	attributed := strings.HasPrefix(hit.Site, "plant:") ||
		strings.HasPrefix(hit.LastAlloc.Site, "plant:") ||
		strings.HasPrefix(hit.LastFree.Site, "plant:")
	if !attributed {
		return fmt.Sprintf("plant %s: detected but not attributed: %s", r.cfg.Plant, hit)
	}
	// Overrun and late-write victims must be contained in quarantine —
	// a block's page, or a pinned cache object; a swallowed double free
	// leaves nothing to park.
	contained := q.Pages
	if hit.Cache != "" {
		contained = q.Pinned
	}
	if r.cfg.Plant != "doublefree" && contained == 0 {
		return fmt.Sprintf("plant %s: detected but nothing quarantined", r.cfg.Plant)
	}
	return ""
}

// endAudit drains every layer with the run's blocks still live and
// requires every ready stock to be gone (the end frees release pages,
// which would return a stock the drain forgot), then frees everything
// still live (with the same per-block checks), drains again, and
// verifies the allocator returns to its header-pages-only physical
// footprint — the leak check that catches blocks stranded anywhere in
// the caching hierarchy.
func (r *Runner) endAudit(m *machine.Machine, a *core.Allocator, ora *oracle, rep *Report) *Failure {
	c := m.CPU(0)
	a.DrainAll(c)
	if n := a.ReadyPages(); n != 0 {
		return &Failure{OpIndex: -1, Msg: fmt.Sprintf("leak: %d ready pages backed ahead after a drain", n)}
	}
	var pinnedPages int64
	if ora.cache != nil {
		// Return every held object (same per-object checks as OpCachePut),
		// then destroy the cache: zero live, and the accounting must prove
		// a destructor undid every construction — ctors == dtors, one
		// each per carve and release, plus one each per Get and Put when
		// hardened — and every carve was released. This precedes the
		// DrainAll leak check because cached buffers are live allocations
		// until the cache sheds them.
		for _, co := range ora.cached {
			if msg := ora.beforeCachePut(co); msg != "" {
				return &Failure{OpIndex: -1, Msg: msg}
			}
			ora.cache.Put(c, co.obj)
			rep.CachePuts++
		}
		ora.cached = nil
		// Only objects the hardening layer pinned stay live — the cache
		// latewrite plant's victim among them: their backing blocks
		// hold their pages mapped, a floor like the quarantined pages'.
		ora.cache.Destroy(c)
		pinned := a.Stats(c).Quarantine.Pinned
		pages := map[uint64]bool{}
		victim := false
		ora.cache.ForEachCarved(func(obj, base arena.Addr) {
			pages[uint64(base)/m.Config().PageBytes] = true
			victim = victim || obj == ora.pinned
		})
		pinnedPages = int64(len(pages))
		st := ora.cache.Stats()
		rep.Cache = st
		if st.Live != pinned || st.CtorRuns != st.DtorRuns || st.Releases+st.Live != st.Carves {
			return &Failure{OpIndex: -1, Msg: fmt.Sprintf(
				"objcache: %d live (%d pinned), ctors %d, dtors %d, carves %d, releases %d after quiescent destroy; want ctors == dtors, live == pinned, carves == releases + pinned",
				st.Live, pinned, st.CtorRuns, st.DtorRuns, st.Carves, st.Releases)}
		}
		if ora.pinned != arena.NilAddr && !victim {
			return &Failure{OpIndex: -1, Msg: fmt.Sprintf(
				"objcache: pinned latewrite victim %#x released", uint64(ora.pinned))}
		}
		if ora.dtorFail != "" {
			return &Failure{OpIndex: -1, Msg: ora.dtorFail}
		}
	}
	for _, h := range ora.live {
		if msg := ora.beforeFree(h); msg != "" {
			return &Failure{OpIndex: -1, Msg: msg}
		}
		a.Free(c, h.addr, h.size)
		rep.Frees++
	}
	ora.live = ora.live[:0]
	ora.liveBytes = 0
	a.DrainAll(c)
	if err := a.CheckConsistency(); err != nil {
		return &Failure{OpIndex: -1, Msg: err.Error()}
	}
	st := a.Stats(c)
	// Quarantined pages stay mapped by design (post-mortem evidence), and
	// so do the pages under pinned cache objects; anything above that
	// raised floor is a genuine leak.
	floor := a.HeaderPages() + int64(st.Quarantine.Pages) + pinnedPages
	if st.Phys.Mapped != floor {
		return &Failure{OpIndex: -1, Msg: fmt.Sprintf(
			"leak: %d pages mapped after full free and drain, floor is %d (%d header + %d quarantined + %d under pinned objects)",
			st.Phys.Mapped, floor, a.HeaderPages(), st.Quarantine.Pages, pinnedPages)}
	}
	if r.cfg.Plant != "" {
		if !ora.plantDone {
			return &Failure{OpIndex: -1, Msg: fmt.Sprintf("plant %s never fired", r.cfg.Plant)}
		}
		if msg := r.auditPlant(ora, st.Quarantine); msg != "" {
			return &Failure{OpIndex: -1, Msg: msg}
		}
	}
	if r.cfg.Lazy {
		// Decommit/recommit read-back audit. The drain just decommitted
		// every free span (the leak check above proved residency is back
		// to the header floor), scrub-filling each page. Recommitting a
		// span must verify the scrub intact — the allocator panics on a
		// dirty page — and hand back zero-filled memory: any workload
		// pattern byte surviving the round trip shows up here.
		pageBytes := m.Config().PageBytes
		span := 8 * pageBytes
		// Large allocations are node-local; a node whose vmblk slots went
		// to other nodes fails with ErrNoVA, so try each CPU until one
		// node's span serves the request.
		var (
			b   arena.Addr
			err error
		)
		for cpu := 0; cpu < r.cfg.CPUs; cpu++ {
			if b, err = a.Alloc(m.CPU(cpu), span); err == nil {
				c = m.CPU(cpu)
				break
			}
		}
		if err != nil {
			return &Failure{OpIndex: -1, Msg: fmt.Sprintf("recommit audit: alloc(%d): %v", span, err)}
		}
		if off, ok := m.Mem().CheckFill(b, span, 0); !ok {
			return &Failure{OpIndex: -1, Msg: fmt.Sprintf(
				"recommit audit: span %#x byte %d not zero after decommit/recommit", b, off)}
		}
		a.Free(c, b, span)
		rep.Allocs++
		rep.Frees++
	}
	return nil
}
