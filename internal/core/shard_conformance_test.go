package core

import (
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// shardGoldenCycles runs a fixed, deterministic mixed workload — standard
// and cookie alloc/free, cross-CPU (and on multi-node machines,
// cross-node) frees, the large path, a Stats snapshot, and a full drain —
// and returns each CPU's final virtual clock. The workload touches every
// path the remote-free shards change, so comparing its per-CPU cycle
// counts against recorded goldens proves bit-for-bit cycle identity.
func shardGoldenCycles(t *testing.T, nodes int, p Params) []int64 {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 4
	cfg.Nodes = nodes
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	a, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}

	sizes := []uint64{16, 64, 128, 1024, 4096}
	type held struct {
		b arena.Addr
		s uint64
	}
	var live []held
	for i := 0; i < 600; i++ {
		c := m.CPU(i % 4)
		sz := sizes[i%len(sizes)]
		b, err := a.Alloc(c, sz)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, held{b, sz})
	}
	// Cross-CPU frees, shifted by two CPUs so every free is remote on the
	// 4-node machine and exercises the remote-free path.
	for i, h := range live {
		a.Free(m.CPU((i+2)%4), h.b, h.s)
	}
	live = live[:0]

	// Cookie churn with all-to-all handoff: each producer's blocks are
	// freed round-robin across every CPU, mixing home nodes in each
	// freeing CPU's cache exactly the way the shards are designed for.
	ck, err := a.GetCookie(128)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 40; r++ {
		var bs []arena.Addr
		for cpu := 0; cpu < 4; cpu++ {
			c := m.CPU(cpu)
			for k := 0; k < 25; k++ {
				b, err := a.AllocCookie(c, ck)
				if err != nil {
					t.Fatal(err)
				}
				bs = append(bs, b)
			}
		}
		for j, b := range bs {
			a.FreeCookie(m.CPU(j%4), b, ck)
		}
	}

	// Large path, freed from a neighbor CPU.
	for cpu := 0; cpu < 4; cpu++ {
		b, err := a.Alloc(m.CPU(cpu), 3*4096+100)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(m.CPU((cpu+1)%4), b, 3*4096+100)
	}

	_ = a.Stats(m.CPU(0))
	a.DrainAll(m.CPU(0))
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	out := make([]int64, 4)
	for i := range out {
		out[i] = m.CPU(i).Now()
	}
	return out
}

// Golden per-CPU cycle counts on the workload above. goldenCyclesNodes1
// was captured at the PR 3 HEAD (before the remote-free shards existed):
// the shard code must not move a single cycle on a single-node machine,
// which must execute the pre-shard free path instruction for
// instruction. PR 24 moved CPU 0's clock and said so (DESIGN.md §17): the
// page layer no longer relinks a page on every freed block, and CPU 0 is
// the one whose frees reach it (1,088,286 -> 1,087,233 and 1,869,145 ->
// 1,865,677; the other CPUs did not move). PR 25 moved every CPU: each
// one's first refill carves fresh pages straight into its lists, and
// CPU 0's spills and drains reach the page layer in one trip (1,087,233
// -> 1,079,548 and 1,865,677 -> 1,804,129 on CPU 0; 7,426-9,500 cycles
// on the others single-node, 15,976-18,800 on four nodes). Paying a
// freed page's unmap outside the page pool's and the vmblk layer's locks
// moved every CPU again: the workload's frees release whole pages, and
// the CPUs no longer queue on a lock held through PageMapCycles
// (1,079,548 -> 971,055 on CPU 0). Mapping a fresh eager span after the
// vmblk lock is dropped moved every CPU once more, for the same reason on
// the allocating side (971,055 -> 922,995 on CPU 0, 23,638-48,060 cycles
// a CPU single-node, 262,668-280,474 on four nodes, where the CPUs' first
// refills all queue on the one vmblk lock); a spill that meets a held
// pool lock and resolves its blocks first took a further 1,378 cycles
// off every single-node CPU. Handing a refill's whole lists out of a
// fresh page as unlinked runs, linked by the CPU that takes each, moved
// every CPU once more (921,617 -> 902,947 on CPU 0, 16,020 cycles on the
// others single-node; 1,419,309 -> 1,334,007 and 12,906-14,880 on four
// nodes). Backing pages ahead moved every single-node CPU once more:
// the 4,096-byte allocations of the first loop refill six fresh pages at
// a time with all four CPUs queued on the pool, so from the fifth such
// refill on the CPUs taking its lists map the next refill's pages on
// their own clocks, and the refill carves them with no map in its hold
// (902,947 -> 749,186 on CPU 0, 153,761-163,032 cycles a CPU; E34).
// Backing a list's two pages as one span moved every single-node CPU
// by +368 cycles (749,186 -> 749,554 on CPU 0): the span claim alone
// accounts for it, a copy that claims the two pages one at a time
// reading 749,106 (E35). Cutting every page in one descending order
// moved every single-node CPU by -91 cycles (749,554 -> 749,463 on CPU
// 0): the same 4 KB pages are carved in the same order, but a list that
// runs across two ready pages now runs downward, the upper page's block
// first, so the CPU that takes it links and hands out the two blocks in
// the other order (E36). On
// four nodes each CPU refills its own node's pool, no refill waits, and
// nothing moved. goldenCyclesNodes4 is the same workload on four nodes,
// where every cross-node free goes through the remote-free shards.
var (
	goldenCyclesNodes1 = []int64{749463, 524458, 525055, 519941}
	goldenCyclesNodes4 = []int64{1334007, 627155, 624043, 628418}
)

func assertGolden(t *testing.T, name string, got, want []int64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: cpu %d ran %d cycles, golden is %d (drift %+d)",
				name, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// TestShardCycleIdentitySingleNode proves the shard code is invisible on
// single-node machines: the workload's per-CPU cycle counts match the
// pre-shard goldens exactly.
func TestShardCycleIdentitySingleNode(t *testing.T) {
	got := shardGoldenCycles(t, 1, Params{})
	assertGolden(t, "nodes=1", got, goldenCyclesNodes1)
}

// TestShardCycleDeterminism pins the sharded 4-node cycle counts: two
// runs must agree exactly (the simulator is deterministic), and both
// must equal the golden.
func TestShardCycleDeterminism(t *testing.T) {
	a := shardGoldenCycles(t, 4, Params{})
	b := shardGoldenCycles(t, 4, Params{})
	assertGolden(t, "nodes=4 sharded repeat", b, a)
	assertGolden(t, "nodes=4", a, goldenCyclesNodes4)
}
