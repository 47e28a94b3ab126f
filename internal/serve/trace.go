// Package serve is the deterministic serving simulation: hundreds of
// thousands of sessions — each owning a STREAMS pipe, a DLM lock, and
// allocator-backed payload and held buffers — open, churn, and close
// under a generated trace with day/night cycles, flash-crowd spikes,
// and pressure waves. Per-op alloc/free latency is surfaced through the
// core event spine as log-scale cycle histograms, windowed per phase,
// so tail-latency SLOs (p50/p99/p999) can be gated in CI.
//
// A trace is reproducible from its seed, and a run over a trace is
// deterministic: same trace, same machine shape, same options — same
// histograms and the same schedule hash.
package serve

import "fmt"

// OpKind is one session operation in a trace.
type OpKind uint8

const (
	// OpOpen opens a session: allocates its payload (arg = size bytes),
	// a STREAMS pipe message, and takes its DLM lock in PR mode.
	OpOpen OpKind = 1 + iota
	// OpClose closes a session: frees held buffers and payload, frees
	// the pipe, and releases the DLM lock.
	OpClose
	// OpMsg round-trips one message through the session's subsystem:
	// Allocb(arg bytes), Write, Read, Freemsg.
	OpMsg
	// OpHold allocates a buffer (arg = size bytes) the session keeps
	// until OpRelease or OpClose — the lifetime skew that drives
	// pressure waves.
	OpHold
	// OpRelease frees the session's oldest held buffer (no-op when
	// nothing is held).
	OpRelease
	// OpLockX converts the session's DLM lock to EX and back to PR.
	OpLockX
)

// PhaseKind labels a trace phase; the runner reports one latency window
// per phase.
type PhaseKind uint8

const (
	// PhaseSteady is diurnal steady-state: the open-session target
	// oscillates between day and night levels.
	PhaseSteady PhaseKind = 1 + iota
	// PhaseSpike is a flash crowd: a fast ramp to roughly twice the
	// steady target, then a mass exodus.
	PhaseSpike
	// PhasePressure is a pressure wave: hold-heavy churn with larger
	// buffers pressing the physical-memory watermarks, then a drain.
	PhasePressure
)

// String returns the phase name used in results and CI gates.
func (k PhaseKind) String() string {
	switch k {
	case PhaseSteady:
		return "steady"
	case PhaseSpike:
		return "spike"
	case PhasePressure:
		return "pressure"
	}
	return fmt.Sprintf("phase(%d)", uint8(k))
}

// Op is one trace record.
type Op struct {
	Kind OpKind
	CPU  uint8
	Sess uint32
	Arg  uint32
}

// Phase is one trace phase.
type Phase struct {
	Kind PhaseKind
	Ops  []Op
}

// Trace is a serving trace.
type Trace struct {
	NCPU   int
	Phases []Phase
}

// NumOps returns the total record count across phases.
func (t *Trace) NumOps() int {
	n := 0
	for i := range t.Phases {
		n += len(t.Phases[i].Ops)
	}
	return n
}

// MaxSession returns the largest session id referenced, or -1 for an
// empty trace.
func (t *Trace) MaxSession() int {
	max := -1
	for i := range t.Phases {
		for _, op := range t.Phases[i].Ops {
			if int(op.Sess) > max {
				max = int(op.Sess)
			}
		}
	}
	return max
}
