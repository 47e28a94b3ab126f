package machine

import (
	"reflect"
	"testing"
)

// pinnedRun is everything the arbitration model decides in one run: who
// ran when (the schedule hash), where every clock ended, and how many
// transactions the buses and the interconnect carried.
type pinnedRun struct {
	hash   uint64
	clocks []int64
	bus    uint64
	ic     uint64
	spin   int64 // summed spin cycles of the two locks
}

// pinnedWorkload drives 8 CPUs on 2 nodes through every arbitrated
// primitive the scheduler, the buses, the interconnect and the spinlocks
// model: short contended critical sections, a long section on a lock
// homed on the other node (spinners wait long enough to be charged the
// capped retry traffic), CAS commits on a shared line, and sweeps that
// issue more transactions and take a lock more often in one operation
// than the occupancy histories remember, so intervals other CPUs could
// still collide with are forgotten — the behaviour TestSchedHashPinned
// exists to keep.
func pinnedWorkload(jit *JitterConfig) pinnedRun {
	mc := DefaultConfig()
	mc.NumCPUs = 8
	mc.Nodes = 2
	mc.MemBytes = 1 << 20
	m := New(mc)
	pages := int64(mc.MemBytes / mc.PageBytes)
	m.SetPageHomeRange(pages/2, pages/2, 1)
	m.SetScheduleJitter(jit)
	m.EnableSchedHash()

	short := NewSpinLock(m)
	long := NewSpinLockOn(m, 1)
	var il PerCPU
	shared := m.NewMetaLine()
	far := m.NewMetaLineOn(1)

	const opsPerCPU = 600
	ops := make([]int, mc.NumCPUs)
	rng := make([]uint64, mc.NumCPUs)
	for i := range rng {
		rng[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	m.Run(func(c *CPU) bool {
		id := c.ID()
		if ops[id] >= opsPerCPU {
			return false
		}
		ops[id]++
		rng[id] = rng[id]*6364136223846793005 + 1442695040888963407
		r := rng[id] >> 33
		switch r % 16 {
		case 0:
			// A sweep of distinct arena lines, alternating home nodes: 160
			// transactions in one operation, so this CPU overwrites its own
			// trail in the bus history while logically earlier CPUs have
			// yet to run.
			base := uint64(r%64) * 4096
			for i := uint64(0); i < 80; i++ {
				c.ReadAddr(4096 + base + i*32)
				c.WriteAddr(mc.MemBytes/2 + base + i*32)
			}
			// And a drain-like run of more critical sections than a lock
			// remembers, with the same effect on its hold history.
			for i := 0; i < 140; i++ {
				short.Acquire(c)
				c.Work(3)
				short.Release(c)
			}
		case 1, 2:
			long.Acquire(c)
			c.Atomic(far)
			c.Idle(int64(2000 + r%4000))
			long.Release(c)
		case 3, 4, 5:
			c.Read(far)
			c.Work(int64(r % 9))
			c.CAS(far)
			if r%5 == 0 {
				c.NoteCASRetry()
				c.Read(far)
				c.CAS(far)
			}
		default:
			il.Enter(c)
			c.Work(5)
			il.Exit(c)
			short.Acquire(c)
			c.Atomic(shared)
			c.Work(int64(3 + r%7))
			short.Release(c)
			c.Write(shared)
		}
		return true
	})

	run := pinnedRun{
		hash: m.SchedHash(),
		bus:  m.BusTransactions(),
		ic:   m.InterconnectTransactions(),
		spin: short.Stats().SpinCycles + long.Stats().SpinCycles,
	}
	for i := 0; i < mc.NumCPUs; i++ {
		run.clocks = append(run.clocks, m.CPU(i).Now())
	}
	return run
}

// TestSchedHashPinned holds the simulator's arbitration model still. The
// constants were captured on the commit before the occupancy histories
// and the run heap were re-implemented for host speed; any change to
// which CPU runs next, to how far a transaction queues behind recorded
// bus, interconnect or lock holds, or to which holds are forgotten moves
// them. The repository benchmark compares the same quantities between
// commits, but it is not part of `go test ./...`.
func TestSchedHashPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		jit  *JitterConfig
		want pinnedRun
	}{
		{"plain", nil, pinnedPlain},
		{"jitter", &JitterConfig{Seed: 20260929}, pinnedJitter},
	} {
		got := pinnedWorkload(tc.jit)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: arbitration model moved\n got  %#v\n want %#v", tc.name, got, tc.want)
		}
	}
}

var (
	pinnedPlain = pinnedRun{
		hash:   0xc0adaa658b009f4f,
		clocks: []int64{2275865, 2603515, 2210527, 2769711, 2858676, 3048131, 3062323, 2709015},
		bus:    0x25608, ic: 0x15005, spin: 8975285,
	}
	pinnedJitter = pinnedRun{
		hash:   0xf56b961e6cf0896e,
		clocks: []int64{2322634, 2747796, 2462457, 2673647, 2991752, 3128937, 3192139, 2764440},
		bus:    0x26bb5, ic: 0x1543f, spin: 7095788,
	}
)
