// Package serve generates serving traces: seeded session records in
// which sessions — each owning a payload, a STREAMS pipe, a DLM lock and
// held buffers for its lifetime — open, churn and close across three
// phases (a day/night steady state, a flash-crowd spike, a pressure
// wave). It only generates; the repository benchmark's `serve` workload
// (benchmark/wl_serve.go) replays a trace on overlapping per-CPU lanes.
//
// A trace is a pure function of its GenConfig, so the benchmark's
// workload is too (TestGeneratePinned).
package serve

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

// PhaseKind labels a trace phase.
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
