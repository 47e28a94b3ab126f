package bench

import "testing"

// TestScalingLocalWorkloadNearlyFree: on the same-CPU churn workload
// the shards have nothing to stage; the only cost a multi-node machine
// adds is the per-free home classification (a memo hit), which must
// stay under 10% of the same CPU count's single-node throughput and must
// never flush or route anything.
func TestScalingLocalWorkloadNearlyFree(t *testing.T) {
	res, err := RunScaling([]int{4}, []int{1, 2}, 128, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	one := res.Point(4, 1, "allocfree", false)
	two := res.Point(4, 2, "allocfree", false)
	if one == nil || two == nil {
		t.Fatal("sweep missing the 4-CPU allocfree points")
	}
	if float64(two.Pairs) < 0.9*float64(one.Pairs) {
		t.Errorf("home classification cost too high: %d pairs on 2 nodes, %d on 1", two.Pairs, one.Pairs)
	}
	if two.ShardFlushes != 0 || two.RemoteFrees != 0 {
		t.Errorf("local churn crossed nodes: flushes=%d remote frees=%d", two.ShardFlushes, two.RemoteFrees)
	}
	if two.HomeMemoHits == 0 {
		t.Error("local churn on 2 nodes never hit the home memo")
	}
}

// TestScalingSweepShapeAndLockAccounting checks the sweep skips invalid
// node counts and that the lock and shard accounting is populated.
func TestScalingSweepShapeAndLockAccounting(t *testing.T) {
	res, err := RunScaling([]int{2, 4}, []int{1, 2, 4}, 128, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	// 2 CPUs: nodes 1,2. 4 CPUs: nodes 1,2,4. Each x 2 workloads x 2 fast
	// paths.
	if want := (2 + 3) * 2 * 2; len(res.Points) != want {
		t.Fatalf("sweep has %d points, want %d", len(res.Points), want)
	}
	if res.Point(2, 4, "prodcons", false) != nil {
		t.Fatal("sweep kept a 2-CPU/4-node point")
	}
	for _, p := range res.Points {
		if p.Pairs == 0 {
			t.Errorf("%d CPUs/%d nodes %s lockfree=%v completed no pairs", p.CPUs, p.Nodes, p.Workload, p.LockFree)
		}
		if p.LockAcqs == 0 || p.LockHoldCycles == 0 {
			t.Errorf("%d CPUs/%d nodes %s lockfree=%v: lock accounting dead (acqs=%d hold=%d)",
				p.CPUs, p.Nodes, p.Workload, p.LockFree, p.LockAcqs, p.LockHoldCycles)
		}
		if p.Nodes == 1 && (p.RemoteFrees != 0 || p.RemotePuts != 0 || p.ShardFlushes != 0) {
			t.Errorf("single-node point shows remote traffic: %+v", p)
		}
		// Cross-node handoff reaches its home pools through the shards.
		if p.Nodes > 1 && p.Workload == "prodcons" && (p.ShardFlushes == 0 || p.HomeMemoHits == 0) {
			t.Errorf("%d CPUs/%d nodes prodcons lockfree=%v: shard counters dead (flushes=%d memo hits=%d)",
				p.CPUs, p.Nodes, p.LockFree, p.ShardFlushes, p.HomeMemoHits)
		}
	}
	if _, err := RunScaling([]int{3}, []int{1}, 128, 0.001); err == nil {
		t.Fatal("odd CPU count accepted")
	}
	if _, err := RunScaling([]int{4}, []int{1}, 128, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}
