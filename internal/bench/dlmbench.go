package bench

import (
	"fmt"
	"math/rand"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/dlm"
	"kmem/internal/machine"
	"kmem/internal/workload"
)

// DLMConfig shapes the distributed-lock-manager benchmark.
type DLMConfig struct {
	CPUs       int
	OpsPerNode int     // lock requests each node issues
	Resources  uint64  // resource id space
	ZipfSkew   float64 // resource popularity skew (>1)
	Seed       int64
}

// DefaultDLMConfig matches the scale of the paper's OLTP lock traffic.
func DefaultDLMConfig() DLMConfig {
	return DLMConfig{
		CPUs:       4,
		OpsPerNode: 20000,
		Resources:  2000,
		ZipfSkew:   1.1,
		Seed:       1993,
	}
}

// DLMClassRow is one size class's measured miss rates, the quantities the
// paper reports for the DLM benchmark.
type DLMClassRow struct {
	Size              uint32
	Target            int
	GblTarget         int
	AllocMiss         float64 // per-CPU layer miss rate on allocation
	FreeMiss          float64 // per-CPU layer miss rate on free
	GlobalGetMiss     float64 // global layer -> coalesce layer, gets
	GlobalPutMiss     float64 // global layer -> coalesce layer, puts
	CombinedAllocMiss float64 // allocations reaching the coalesce layer
	CombinedFreeMiss  float64
	Allocs            uint64
	Frees             uint64
}

// DLMResult holds the measured rates plus workload volume.
type DLMResult struct {
	Config    DLMConfig
	Rows      []DLMClassRow
	Locks     uint64
	Unlocks   uint64
	Converts  uint64
	Waits     uint64
	Aborts    uint64
	Messages  uint64
	VirtualMS float64
}

// RunDLM reproduces the paper's distributed-lock-manager evaluation: OLTP
// clients on every CPU lock, convert and unlock Zipf-popular resources;
// lock/resource/message blocks all come from kmem_alloc; messages are
// freed on the receiving CPU. The per-layer miss rates of the classes the
// DLM allocates from are the result.
func RunDLM(cfg DLMConfig) (*DLMResult, error) {
	m := machine.New(MachineFor(cfg.CPUs, 64<<20, 8192))
	al, err := core.New(m, core.Params{})
	if err != nil {
		return nil, err
	}
	cl, err := dlm.NewCluster(al, 256)
	if err != nil {
		return nil, err
	}

	type held struct {
		h   arena.Addr
		res uint64
	}
	type nodeState struct {
		rng       *rand.Rand
		zipf      *workload.Zipf
		held      []held
		waiting   map[arena.Addr]uint64 // handle -> resID
		issued    int
		steps     int
		txnSize   int
		waitTicks int
		converted bool
		releasing bool
		draining  bool
	}
	states := make([]*nodeState, cfg.CPUs)
	for i := range states {
		r := workload.NewRand(cfg.Seed + int64(i))
		states[i] = &nodeState{
			rng:     r,
			zipf:    workload.NewZipf(r, cfg.ZipfSkew, cfg.Resources),
			waiting: map[arena.Addr]uint64{},
			txnSize: 16,
		}
	}
	modeFor := func(r *rand.Rand) dlm.Mode {
		switch n := r.Intn(100); {
		case n < 30:
			return dlm.CR
		case n < 70:
			return dlm.PR
		case n < 85:
			return dlm.PW
		default:
			return dlm.EX
		}
	}

	idle := make([]int, cfg.CPUs)
	// A node may not stop while any other node is still working: it is
	// the master for a share of the resources and must keep servicing
	// its inbox until the whole cluster has drained.
	allDone := func() bool {
		for _, s := range states {
			if !s.draining || len(s.held) > 0 || len(s.waiting) > 0 {
				return false
			}
		}
		return true
	}
	m.Run(func(c *machine.CPU) bool {
		id := c.ID()
		st := states[id]
		n := cl.Node(id)

		processed := n.Step(c, 4)
		// Node 0 doubles as the deadlock-search coordinator, as the VMS
		// lock manager's timeout-driven search did.
		st.steps++
		if id == 0 && st.steps%256 == 0 {
			n.BreakDeadlocks(c)
		}
		for _, comp := range n.TakeCompletions() {
			switch comp.Kind {
			case dlm.LockDone:
				switch comp.St {
				case dlm.Granted:
					st.held = append(st.held, held{comp.Handle, comp.ResID})
				case dlm.Waiting:
					st.waiting[comp.Handle] = comp.ResID
				}
			case dlm.GrantDelivered:
				if res, ok := st.waiting[comp.Handle]; ok {
					delete(st.waiting, comp.Handle)
					st.held = append(st.held, held{comp.Handle, res})
				}
			case dlm.AbortDelivered:
				// The deadlock detector denied one of our waiting locks.
				delete(st.waiting, comp.Handle)
			case dlm.ConvertDone:
				// Converts complete in place; waiting conversions are
				// re-granted via GrantDelivered, but the handle is
				// already in held, so nothing to move.
			}
		}

		if !st.draining {
			// OLTP transactions: acquire a burst of locks, hold them for
			// the transaction body, then release them all. The bursts are
			// what exercises the allocator's layers; a perfectly smooth
			// alloc/free interleave would hide in the per-CPU caches.
			//
			// Incremental acquisition can deadlock (A holds r1 and waits
			// for r2 while B holds r2 and waits for r1), so, like any
			// OLTP system, a transaction that waits too long aborts:
			// it releases its held locks, which breaks the cycle; its
			// waiting locks are granted eventually and released during
			// the releasing state.
			switch {
			case st.releasing && len(st.held) > 0:
				h := st.held[len(st.held)-1]
				st.held = st.held[:len(st.held)-1]
				n.Unlock(c, h.h, h.res)
			case st.releasing && len(st.waiting) == 0:
				st.releasing = false
				st.waitTicks = 0
				st.converted = false
				st.txnSize = 4 + st.rng.Intn(29)
				if st.issued >= cfg.OpsPerNode {
					st.draining = true
				}
			case st.releasing:
				c.Work(40) // waiting for straggler grants to release
				st.waitTicks++
			case st.issued < cfg.OpsPerNode && len(st.held)+len(st.waiting) < st.txnSize:
				n.Lock(c, st.zipf.Next(), modeFor(st.rng))
				st.issued++
			default:
				if len(st.waiting) > 0 {
					c.Work(40) // waiting on grants before the txn body
					st.waitTicks++
					if st.waitTicks > 300 {
						// Deadlock suspicion: abort the transaction.
						st.releasing = true
						st.waitTicks = 0
					}
					break
				}
				if !st.converted && len(st.held) > 0 && st.rng.Intn(4) == 0 {
					// Lock conversion partway through the transaction
					// (e.g. read lock upgraded before a write).
					st.converted = true
					i := st.rng.Intn(len(st.held))
					n.Convert(c, st.held[i].h, st.held[i].res, modeFor(st.rng))
					break
				}
				c.Work(200) // transaction body
				st.releasing = true
				st.waitTicks = 0
			}
			return true
		}

		// Drain: release everything, then keep servicing the inbox until
		// the whole cluster is quiet.
		if len(st.held) > 0 {
			h := st.held[len(st.held)-1]
			st.held = st.held[:len(st.held)-1]
			n.Unlock(c, h.h, h.res)
			return true
		}
		if processed > 0 || !allDone() {
			idle[id] = 0
			c.Work(40)
			return true
		}
		idle[id]++
		c.Work(40)
		return idle[id] < 50
	})

	// Post-run audit.
	if err := al.CheckConsistency(); err != nil {
		return nil, fmt.Errorf("bench: post-DLM consistency: %w", err)
	}

	res := &DLMResult{Config: cfg}
	stats := al.Stats(m.CPU(0))
	for _, cs := range stats.Classes {
		if cs.Allocs == 0 {
			continue
		}
		res.Rows = append(res.Rows, DLMClassRow{
			Size:              cs.Size,
			Target:            cs.Target,
			GblTarget:         cs.GblTarget,
			AllocMiss:         cs.AllocMissRate(),
			FreeMiss:          cs.FreeMissRate(),
			GlobalGetMiss:     cs.GlobalGetMissRate(),
			GlobalPutMiss:     cs.GlobalPutMissRate(),
			CombinedAllocMiss: cs.CombinedAllocMissRate(),
			CombinedFreeMiss:  cs.CombinedFreeMissRate(),
			Allocs:            cs.Allocs,
			Frees:             cs.Frees,
		})
	}
	ms := cl.Manager().Stats()
	res.Locks, res.Unlocks, res.Converts, res.Waits = ms.Locks, ms.Unlocks, ms.Converts, ms.Waits
	res.Aborts = ms.Aborts
	for i := 0; i < cfg.CPUs; i++ {
		res.Messages += cl.Node(i).Stats().MsgsSent
	}
	var maxClock int64
	for i := 0; i < cfg.CPUs; i++ {
		if t := m.CPU(i).Now(); t > maxClock {
			maxClock = t
		}
	}
	res.VirtualMS = m.CyclesToSeconds(maxClock) * 1e3
	return res, nil
}

// DLMScaleRow is one cluster size's throughput.
type DLMScaleRow struct {
	Nodes       int
	LocksPerSec float64
	MsgsPerSec  float64
	VirtualMS   float64
	Aborts      uint64
}

// RunDLMScaling sweeps the cluster size: the lock manager is built
// entirely on kmem_alloc, so near-linear growth in lock throughput shows
// the allocator staying off the critical path as CPUs are added — the
// production property the paper's DLM benchmark stands in for.
func RunDLMScaling(cpuCounts []int, opsPerNode int) ([]DLMScaleRow, error) {
	var rows []DLMScaleRow
	for _, n := range cpuCounts {
		cfg := DefaultDLMConfig()
		cfg.CPUs = n
		cfg.OpsPerNode = opsPerNode
		// Scale the resource space with the cluster so lock conflict
		// rates stay comparable.
		cfg.Resources = uint64(500 * n)
		res, err := RunDLM(cfg)
		if err != nil {
			return nil, err
		}
		sec := res.VirtualMS / 1e3
		rows = append(rows, DLMScaleRow{
			Nodes:       n,
			LocksPerSec: float64(res.Locks) / sec,
			MsgsPerSec:  float64(res.Messages) / sec,
			VirtualMS:   res.VirtualMS,
			Aborts:      res.Aborts,
		})
	}
	return rows, nil
}

// DLMScaleTable renders the sweep.
func DLMScaleTable(rows []DLMScaleRow) *Table {
	t := &Table{
		Title:   "DLM cluster scaling (lock manager built entirely on kmem_alloc)",
		Headers: []string{"nodes", "locks/sec", "msgs/sec", "per-node locks/sec", "deadlock aborts"},
	}
	for _, r := range rows {
		t.AddRowf("%d|%.0f|%.0f|%.0f|%d",
			r.Nodes, r.LocksPerSec, r.MsgsPerSec, r.LocksPerSec/float64(r.Nodes), r.Aborts)
	}
	return t
}

// Table renders the miss rates alongside the paper's worst-case bounds
// (1/target, 1/gbltarget, and their product).
func (r *DLMResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf(
			"DLM benchmark: %d CPUs, %d locks, %d unlocks, %d converts, %d waits, %d deadlock aborts, %d messages (%.1f virtual ms)",
			r.Config.CPUs, r.Locks, r.Unlocks, r.Converts, r.Waits, r.Aborts, r.Messages, r.VirtualMS),
		Headers: []string{
			"size", "allocs", "percpu-miss%", "bound%",
			"global-miss%", "bound%", "combined%", "bound%",
		},
	}
	for _, row := range r.Rows {
		percpu := maxf(row.AllocMiss, row.FreeMiss)
		global := maxf(row.GlobalGetMiss, row.GlobalPutMiss)
		combined := maxf(row.CombinedAllocMiss, row.CombinedFreeMiss)
		t.AddRowf("%d|%d|%.2f|%.2f|%.2f|%.2f|%.4f|%.4f",
			row.Size, row.Allocs, percpu*100, 100.0/float64(row.Target), global*100,
			100.0/float64(row.GblTarget), combined*100, 100.0/float64(row.Target*row.GblTarget))
	}
	return t
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
