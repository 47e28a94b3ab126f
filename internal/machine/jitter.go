package machine

// Schedule jitter is the torture subsystem's lever on the simulator: an
// opt-in, seeded perturbation of the discrete-event schedule. The
// conservative scheduler in runSim always runs the lowest-clock CPU and
// breaks ties by CPU id, so one configuration explores exactly one
// interleaving. With jitter armed, three perturbations — all drawn from
// one xorshift64* stream, so a seed names an interleaving exactly:
//
//   - tie-breaking: each CPU carries a pseudo-random tie priority,
//     refreshed after every operation it executes, that orders CPUs
//     whose clocks are equal (id remains the final tie-break so the
//     order is still total);
//   - preemption points: after an operation completes, the CPU's clock
//     may jump forward a bounded random amount, modelling an interrupt
//     or preemption that lets other CPUs' operations slide in front;
//   - lock boundaries: an acquire (SpinLock, or PerCPU under interrupt
//     disable) may be delayed a bounded random amount before it
//     contends, reordering lock arbitration specifically.
//
// Everything is charged to virtual clocks, so a jittered run is exactly
// as replayable as a plain one: same seed, same config, same workload =>
// the same interleaving, cycle for cycle. With jitter disabled (nil
// config or Seed 0) every hook reduces to a nil check and the schedule
// is byte-identical to the unjittered simulator — pinned by the cycle
// goldens in internal/core's shard conformance tests.

import "kmem/internal/workload"

// JitterConfig configures seeded schedule perturbation. Seed 0 disables
// jitter entirely.
type JitterConfig struct {
	// Seed selects the interleaving. 0 disables jitter.
	Seed uint64

	// RestartEvery is the mean number of restartable-sequence attempts
	// between injected aborts (0 selects 9). A restart-storm config sets
	// this to 2 to abort sequences at a high rate; see PerCPU.Enter for
	// how each abort picks an adversarial abort point. Only consulted
	// while a sequence is running, so runs without restartable sections
	// draw exactly the same jitter stream as before the knob existed.
	RestartEvery int
}

// The perturbation rates and bounds. They are part of what a seed means:
// changing one changes every committed jittered SchedHash and repro.
const (
	// jitPreemptEvery is the mean number of operations between injected
	// preemption points; jitMaxPreemptCycles bounds one such delay.
	jitPreemptEvery     = 7
	jitMaxPreemptCycles = 1500
	// jitLockEvery is the mean number of lock acquisitions between
	// injected lock-boundary delays; jitMaxLockCycles bounds one.
	jitLockEvery     = 5
	jitMaxLockCycles = 400
	// jitMaxRestartWork bounds the wasted straight-line instructions
	// charged for one aborted attempt — the adversarial abort point is
	// drawn in [1, jitMaxRestartWork], so a sequence can be aborted
	// anywhere from its first instruction to just shy of its commit.
	jitMaxRestartWork = 16
)

// jitter holds the armed restart rate and the PRNG stream. The stream
// is consumed in schedule order, which is itself deterministic, so the
// whole run is a pure function of (seed, config, workload).
type jitter struct {
	*workload.Xorshift
	restartEvery uint64
}

// delay draws a delay in [1, max].
func (j *jitter) delay(max int64) int64 {
	return 1 + int64(j.Next()%uint64(max))
}

// SetScheduleJitter arms (or, with a nil config or zero seed, disarms)
// seeded schedule perturbation. Sim mode only: Native scheduling belongs
// to the Go runtime. Call before Run; arming mid-run is not supported.
func (m *Machine) SetScheduleJitter(cfg *JitterConfig) {
	if cfg == nil || cfg.Seed == 0 {
		m.jit = nil
		for i := range m.cpus {
			m.cpus[i].tiePri = 0
		}
		return
	}
	if m.cfg.Mode != Sim {
		panic("machine: schedule jitter requires Sim mode")
	}
	m.jit = &jitter{Xorshift: workload.NewXorshift(cfg.Seed), restartEvery: 9}
	if cfg.RestartEvery > 0 {
		m.jit.restartEvery = uint64(cfg.RestartEvery)
	}
	// Seed every CPU's tie priority up front so the very first tie is
	// already perturbed.
	for i := range m.cpus {
		m.cpus[i].tiePri = m.jit.Next()
	}
}

// lockJitter possibly injects a bounded seeded delay at a lock boundary.
// Called from the Sim branches of SpinLock.Acquire and PerCPU.EnterForeign;
// with jitter disarmed it is a nil check.
func (m *Machine) lockJitter(c *CPU) {
	j := m.jit
	if j == nil {
		return
	}
	if j.Next()%jitLockEvery != 0 {
		return
	}
	c.clock += j.delay(jitMaxLockCycles)
}

// rseqAbort decides whether the next restartable-sequence attempt on c
// is aborted, and if so at which point: it returns the number of wasted
// straight-line instructions the aborted attempt executed before the
// preemption hit. With jitter disarmed sequences never abort in Sim —
// the conservative schedule has no preemption to restart from.
func (m *Machine) rseqAbort(c *CPU) (abort bool, wasted int64) {
	j := m.jit
	if j == nil {
		return false, 0
	}
	if j.Next()%j.restartEvery != 0 {
		return false, 0
	}
	return true, j.delay(jitMaxRestartWork)
}

// --- schedule hashing ----------------------------------------------------

// FNV-1a over the scheduled (cpu, clock) pairs. The hash names an
// interleaving: two runs with the same hash scheduled the same CPUs at
// the same virtual times in the same order.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

// fnvPow[k] is fnvPrime^k mod 2^64.
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// fnvMix folds the eight little-endian bytes of v into h. A zero byte
// only multiplies h by fnvPrime, so once the rest of v is zero — ids and
// clocks are small — the tail is one multiply by a precomputed power.
func fnvMix(h, v uint64) uint64 {
	k := 8
	for ; v != 0; k-- {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	return h * fnvPow[k]
}

// EnableSchedHash starts (re)accumulating the schedule hash: one FNV-1a
// update per scheduled operation, folding in the chosen CPU's id and
// clock. Hashing never touches virtual clocks, so it can be enabled in
// golden runs without perturbing them.
func (m *Machine) EnableSchedHash() {
	m.schedHashOn = true
	m.schedHash = fnvOffset
}

// SchedHash returns the accumulated schedule hash.
func (m *Machine) SchedHash() uint64 { return m.schedHash }
