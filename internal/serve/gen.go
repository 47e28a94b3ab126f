package serve

// Seeded trace generation. A trace is a pure function of its GenConfig:
// the generator uses one xorshift64* stream and no host state, so the
// same config always produces the same bytes — the basis of the
// byte-reproducibility contract (TestGeneratePinned) and of the
// benchmark's `serve` workload, which replays these traces.

import "kmem/internal/workload"

// GenConfig parameterizes trace generation.
type GenConfig struct {
	// Seed selects the trace; zero picks a fixed default stream.
	Seed uint64
	// CPUs is the machine width the trace targets.
	CPUs int
	// Sessions is the steady-state open-session target; the spike phase
	// overshoots to roughly twice this.
	Sessions int
	// OpsPerPhase is the record count of each of the three phases.
	OpsPerPhase int
}

// Message and payload size tables. Values stay within the allocator's
// small classes so every operation exercises the class path; the
// pressure phase skews large to press the physical-memory watermarks.
var (
	paySizes      = []uint32{96, 160, 256, 384, 512}
	msgSizes      = []uint32{64, 96, 128, 256, 512}
	holdSizes     = []uint32{64, 128, 256, 512}
	pressureHolds = []uint32{1024, 2048, 3072, 4096}
)

// genState is the generator's view of the live session population.
type genState struct {
	r      *workload.Xorshift
	cfg    GenConfig
	next   uint32   // next fresh session id
	open   []uint32 // open session ids, in open order
	pos    []int32  // session id -> index in open, -1 when closed
	home   []uint8  // session id -> home CPU
	held   []uint16 // session id -> held-buffer count
	inHold bool     // pressure phase: bias churn toward holds
}

func (g *genState) openOp(sizes []uint32) Op {
	s := g.next
	g.next++
	g.pos = append(g.pos, int32(len(g.open)))
	g.home = append(g.home, uint8(g.r.Intn(g.cfg.CPUs)))
	g.held = append(g.held, 0)
	g.open = append(g.open, s)
	return Op{Kind: OpOpen, CPU: g.home[s], Sess: s, Arg: sizes[g.r.Intn(len(sizes))]}
}

func (g *genState) closeOp() Op {
	i := g.r.Intn(len(g.open))
	s := g.open[i]
	last := len(g.open) - 1
	g.open[i] = g.open[last]
	g.pos[g.open[i]] = int32(i)
	g.open = g.open[:last]
	g.pos[s] = -1
	// Three in four sessions close where they opened; the rest close on
	// another CPU, pushing their frees through the cross-CPU drain and
	// shard paths.
	cpu := g.home[s]
	if g.r.Intn(4) == 0 {
		cpu = uint8(g.r.Intn(g.cfg.CPUs))
	}
	return Op{Kind: OpClose, CPU: cpu, Sess: s}
}

func (g *genState) churnOp() Op {
	s := g.open[g.r.Intn(len(g.open))]
	cpu := g.home[s]
	if g.r.Intn(8) == 0 {
		cpu = uint8(g.r.Intn(g.cfg.CPUs))
	}
	w := g.r.Intn(16)
	if g.inHold {
		// Pressure wave: holds crowd out messages, releases are rare.
		switch {
		case w < 8:
			if g.held[s] < 1<<15 {
				g.held[s]++
			}
			return Op{Kind: OpHold, CPU: cpu, Sess: s, Arg: pressureHolds[g.r.Intn(len(pressureHolds))]}
		case w < 10 && g.held[s] > 0:
			g.held[s]--
			return Op{Kind: OpRelease, CPU: cpu, Sess: s}
		case w < 12:
			return Op{Kind: OpLockX, CPU: cpu, Sess: s}
		default:
			return Op{Kind: OpMsg, CPU: cpu, Sess: s, Arg: msgSizes[g.r.Intn(len(msgSizes))]}
		}
	}
	switch {
	case w < 9:
		return Op{Kind: OpMsg, CPU: cpu, Sess: s, Arg: msgSizes[g.r.Intn(len(msgSizes))]}
	case w < 12:
		if g.held[s] < 1<<15 {
			g.held[s]++
		}
		return Op{Kind: OpHold, CPU: cpu, Sess: s, Arg: holdSizes[g.r.Intn(len(holdSizes))]}
	case w < 14 && g.held[s] > 0:
		g.held[s]--
		return Op{Kind: OpRelease, CPU: cpu, Sess: s}
	case w < 15:
		return Op{Kind: OpLockX, CPU: cpu, Sess: s}
	default:
		return Op{Kind: OpMsg, CPU: cpu, Sess: s, Arg: msgSizes[g.r.Intn(len(msgSizes))]}
	}
}

// target returns the open-session target at step i of n for the phase.
func target(kind PhaseKind, i, n, sessions int) int {
	switch kind {
	case PhaseSteady:
		// Two day/night cycles: a triangle wave between 55% and 100%.
		pos := i * 4 % (2 * n) // 0..2n over half a cycle
		frac := pos
		if frac > n {
			frac = 2*n - frac // descend
		}
		return sessions*55/100 + sessions*45/100*frac/n
	case PhaseSpike:
		// Flash crowd: ramp to 200% over the first 40%, hold briefly,
		// then a mass exodus down to 30%.
		switch {
		case i < n*4/10:
			return sessions*60/100 + (sessions*140/100)*i/(n*4/10)
		case i < n*5/10:
			return sessions * 2
		default:
			lo, span := sessions*30/100, sessions*170/100
			left := n - i
			return lo + span*left/(n*5/10)
		}
	case PhasePressure:
		// Constant population; the wave is in what the churn holds.
		return sessions * 80 / 100
	}
	return sessions
}

// Generate produces the three-phase serving trace for cfg. The result
// is deterministic in cfg alone.
func Generate(cfg GenConfig) *Trace {
	if cfg.CPUs < 1 {
		cfg.CPUs = 1
	}
	if cfg.Sessions < 8 {
		cfg.Sessions = 8
	}
	if cfg.OpsPerPhase < 1 {
		cfg.OpsPerPhase = 1
	}
	g := &genState{r: workload.NewXorshift(cfg.Seed), cfg: cfg}
	t := &Trace{NCPU: cfg.CPUs}
	for _, kind := range []PhaseKind{PhaseSteady, PhaseSpike, PhasePressure} {
		g.inHold = false
		ops := make([]Op, 0, cfg.OpsPerPhase)
		n := cfg.OpsPerPhase
		for i := 0; i < n; i++ {
			if kind == PhasePressure {
				// The wave: hold-heavy for the first 70%, then drain.
				g.inHold = i < n*7/10
			}
			paySz := paySizes
			if kind == PhasePressure {
				paySz = holdSizes
			}
			tgt := target(kind, i, n, cfg.Sessions)
			switch {
			case len(g.open) < tgt:
				ops = append(ops, g.openOp(paySz))
			case len(g.open) > tgt && len(g.open) > 1:
				ops = append(ops, g.closeOp())
			case !g.inHold && g.r.Intn(4) == 0 && len(g.open) > 1:
				// Session turnover: a quarter of steady traffic is a close
				// whose slot the target logic refills next op, so the
				// cumulative session count dwarfs the concurrent target —
				// most sessions are short-lived, as serving traffic is.
				// Suspended during the hold wave, which needs sessions to
				// live long enough for their holds to press the watermarks.
				ops = append(ops, g.closeOp())
			default:
				ops = append(ops, g.churnOp())
			}
		}
		t.Phases = append(t.Phases, Phase{Kind: kind, Ops: ops})
	}
	return t
}
