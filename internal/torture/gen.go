package torture

// Seeded workload generation. An op sequence is materialized up front
// from the workload seed, then executed under whatever schedule the
// jitter seed selects — so the same ops can be replayed under many
// interleavings, and a failing (ops, seeds) pair is a complete repro.

import "kmem/internal/workload"

// OpKind tags one torture operation.
type OpKind uint8

// Operation kinds. Free and Drain ops resolve their object at execution
// time (a free picks a live handle by index modulo the live count), so
// any subsequence of a generated op list is itself executable — the
// property delta-debugging depends on.
const (
	// OpAlloc allocates Size bytes on CPU (skipped at the working-set cap).
	OpAlloc OpKind = iota + 1
	// OpAllocWait is OpAlloc through the blocking KM_SLEEP-style path.
	OpAllocWait
	// OpFree frees live handle Arg%len(live) on CPU (skipped when none).
	OpFree
	// OpDrain flushes CPU Arg%CPUs' caches from CPU (self- and
	// cross-CPU drains both occur).
	OpDrain
	// OpCacheGet takes a constructed object from the typed object cache
	// (ObjCache configs only; skipped at the working-set cap).
	OpCacheGet
	// OpCachePut returns held cache object Arg%len(cached) after
	// restoring its constructed state (skipped when none held).
	OpCachePut
)

func (k OpKind) String() string {
	switch k {
	case OpAlloc:
		return "alloc"
	case OpAllocWait:
		return "allocwait"
	case OpFree:
		return "free"
	case OpDrain:
		return "drain"
	case OpCacheGet:
		return "cacheget"
	case OpCachePut:
		return "cacheput"
	}
	return "op?"
}

// Op is one materialized torture operation.
type Op struct {
	Kind OpKind `json:"k"`
	CPU  uint8  `json:"c"`
	Size uint32 `json:"s,omitempty"`
	Arg  uint32 `json:"a,omitempty"`
}

// smallSizes are the interesting small-request sizes: class boundaries,
// one past them, odd sizes, and the largest small class.
var smallSizes = []uint32{
	1, 8, 16, 17, 24, 32, 33, 40, 64, 65, 96, 128, 129,
	200, 256, 257, 512, 513, 1000, 1024, 1025, 2048, 2049, 4000, 4096,
}

// generate materializes cfg.Ops operations from cfg.Seed. The non-cache
// distribution is untouched when ObjCache is off, so existing seeds and
// committed repro artifacts keep drawing the identical RNG stream.
func generate(cfg Config) []Op {
	r := workload.NewXorshift(cfg.Seed)
	if cfg.Serve {
		// The serve dimension replaces the distribution wholesale; the
		// branch sits after rng creation so non-serve configs keep
		// drawing the identical stream they always have.
		return generateServe(cfg, r)
	}
	ops := make([]Op, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		op := Op{CPU: uint8(r.Intn(cfg.CPUs))}
		roll := r.Intn(100)
		switch {
		case cfg.ObjCache && roll < 35:
			op.Kind = OpAlloc
			op.Size = genSize(r, cfg.MaxSize)
		case cfg.ObjCache && roll < 45:
			op.Kind = OpAllocWait
			op.Size = genSize(r, cfg.MaxSize)
		case cfg.ObjCache && roll < 60:
			op.Kind = OpCacheGet
		case cfg.ObjCache && roll < 72:
			op.Kind = OpCachePut
			op.Arg = uint32(r.Next())
		case cfg.ObjCache && roll < 93:
			op.Kind = OpFree
			op.Arg = uint32(r.Next())
		case cfg.ObjCache:
			op.Kind = OpDrain
			op.Arg = uint32(r.Intn(cfg.CPUs))
		case roll < 50:
			op.Kind = OpAlloc
			op.Size = genSize(r, cfg.MaxSize)
		case roll < 60:
			op.Kind = OpAllocWait
			op.Size = genSize(r, cfg.MaxSize)
		case roll < 93:
			op.Kind = OpFree
			op.Arg = uint32(r.Next())
		default:
			op.Kind = OpDrain
			op.Arg = uint32(r.Intn(cfg.CPUs))
		}
		ops = append(ops, op)
	}
	return ops
}

// generateServe materializes session-lifetime traffic from the same op
// vocabulary: an open is a burst of allocations on one home CPU, a
// close is a burst of frees — one in four on a foreign CPU, and biased
// toward the oldest live handles so lifetime skew actually lands on
// remotely-allocated blocks — and the open-session population follows a
// two-cycle day/night wave. All ops still resolve handles at execution
// time, so any subsequence delta-debugs exactly like the uniform mix.
func generateServe(cfg Config, r *workload.Xorshift) []Op {
	type sess struct {
		home   uint8
		blocks int
	}
	var open []sess
	ops := make([]Op, 0, cfg.Ops)
	lo := 2 + cfg.WorkingSet/16
	hi := lo + 1 + cfg.WorkingSet/8
	for len(ops) < cfg.Ops {
		// Two triangle-wave day/night cycles across the run.
		pos := len(ops) * 4 % (2 * cfg.Ops)
		if pos > cfg.Ops {
			pos = 2*cfg.Ops - pos
		}
		tgt := lo + (hi-lo)*pos/cfg.Ops
		switch {
		case len(open) < tgt:
			// Session open: a burst of 3-8 allocations on the home CPU.
			home := uint8(r.Intn(cfg.CPUs))
			n := 3 + r.Intn(6)
			for j := 0; j < n && len(ops) < cfg.Ops; j++ {
				ops = append(ops, Op{Kind: OpAlloc, CPU: home, Size: genSize(r, cfg.MaxSize)})
			}
			open = append(open, sess{home: home, blocks: n})
		case len(open) > tgt:
			// Session close: free about as many blocks as it opened,
			// old-handle-biased, sometimes from a foreign CPU.
			i := r.Intn(len(open))
			s := open[i]
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
			cpu := s.home
			if r.Intn(4) == 0 {
				cpu = uint8(r.Intn(cfg.CPUs))
			}
			for j := 0; j < s.blocks && len(ops) < cfg.Ops; j++ {
				ops = append(ops, Op{Kind: OpFree, CPU: cpu, Arg: uint32(r.Intn(32))})
			}
		default:
			// Churn on a random open session's home CPU.
			cpu := open[r.Intn(len(open))].home
			op := Op{CPU: cpu}
			roll := r.Intn(100)
			switch {
			case cfg.ObjCache && roll < 20:
				op.Kind = OpCacheGet
			case cfg.ObjCache && roll < 35:
				op.Kind = OpCachePut
				op.Arg = uint32(r.Next())
			case roll < 55:
				op.Kind = OpAlloc
				op.Size = genSize(r, cfg.MaxSize)
			case roll < 85:
				op.Kind = OpFree
				op.Arg = uint32(r.Next())
			case roll < 92:
				op.Kind = OpAllocWait
				op.Size = genSize(r, cfg.MaxSize)
			default:
				op.Kind = OpDrain
				op.Arg = uint32(r.Intn(cfg.CPUs))
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// genSize draws a request size: mostly small-class sizes, some one-page
// neighborhood, a tail of multi-page large requests up to max.
func genSize(r *workload.Xorshift, max uint32) uint32 {
	var size uint32
	switch roll := r.Intn(100); {
	case roll < 65:
		size = smallSizes[r.Intn(len(smallSizes))]
	case roll < 90:
		size = 4097 + uint32(r.Intn(8192))
	default:
		size = 1 + uint32(r.Next()%uint64(max))
	}
	if size > max {
		size = max
	}
	if size == 0 {
		size = 1
	}
	return size
}
