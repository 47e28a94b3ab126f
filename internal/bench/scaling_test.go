package bench

import "testing"

// TestScalingShardsCutRemotePuts pins the PR's acceptance criterion: at
// 8 CPUs / 4 nodes on the prodcons handoff workload, batching remote
// frees in per-CPU shards must cut remote putList lock trips at least
// 4x versus per-spill routing, without losing throughput.
func TestScalingShardsCutRemotePuts(t *testing.T) {
	res, err := RunScaling([]int{8}, []int{4}, 128, 0.005, false)
	if err != nil {
		t.Fatal(err)
	}
	routed := res.Point(8, 4, "prodcons", false, false)
	sharded := res.Point(8, 4, "prodcons", true, false)
	if routed == nil || sharded == nil {
		t.Fatal("sweep missing the 8-CPU/4-node prodcons points")
	}
	if routed.RemotePuts == 0 {
		t.Fatal("routed baseline recorded no remote puts")
	}
	// The workload is closed-loop — the sharded configuration completes
	// more pairs in the same window — so compare remote putList trips per
	// completed pair, not raw counts.
	perPair := func(p *ScalingPoint) float64 { return float64(p.RemotePuts) / float64(p.Pairs) }
	ratio := perPair(routed) / perPair(sharded)
	t.Logf("remote puts/pair: routed=%.4f (%d/%d) sharded=%.4f (%d/%d) — %.1fx; pairs/s routed=%.0f sharded=%.0f; lock wait routed=%d sharded=%d",
		perPair(routed), routed.RemotePuts, routed.Pairs,
		perPair(sharded), sharded.RemotePuts, sharded.Pairs, ratio,
		routed.PairsPerSec, sharded.PairsPerSec,
		routed.LockWaitCycles, sharded.LockWaitCycles)
	if ratio < 4 {
		t.Errorf("remote putList trips per pair only cut %.1fx, want >= 4x", ratio)
	}
	if sharded.PairsPerSec < routed.PairsPerSec {
		t.Errorf("shards lost throughput: %.0f pairs/s vs %.0f routed",
			sharded.PairsPerSec, routed.PairsPerSec)
	}
	if sharded.ShardFlushes == 0 || sharded.HomeMemoHits == 0 {
		t.Errorf("shard counters dead: flushes=%d memo hits=%d",
			sharded.ShardFlushes, sharded.HomeMemoHits)
	}
	if routed.ShardFlushes != 0 || routed.HomeMemoHits != 0 {
		t.Errorf("shards-off point shows shard activity: flushes=%d memo hits=%d",
			routed.ShardFlushes, routed.HomeMemoHits)
	}
}

// TestScalingLocalWorkloadNearlyFree: on the same-CPU churn workload
// the shards have nothing to stage; the only cost left is the per-free
// home classification (a memo hit), which must stay under 10% of
// throughput and must never flush or route anything.
func TestScalingLocalWorkloadNearlyFree(t *testing.T) {
	res, err := RunScaling([]int{4}, []int{2}, 128, 0.002, false)
	if err != nil {
		t.Fatal(err)
	}
	off := res.Point(4, 2, "allocfree", false, false)
	on := res.Point(4, 2, "allocfree", true, false)
	if off == nil || on == nil {
		t.Fatal("sweep missing the 4-CPU/2-node allocfree points")
	}
	if float64(on.Pairs) < 0.9*float64(off.Pairs) {
		t.Errorf("home classification cost too high: %d pairs with shards, %d without", on.Pairs, off.Pairs)
	}
	if on.ShardFlushes != 0 || on.RemoteFrees != 0 {
		t.Errorf("local churn crossed nodes: flushes=%d remote frees=%d", on.ShardFlushes, on.RemoteFrees)
	}
	if on.HomeMemoHits == 0 {
		t.Error("local churn with shards never hit the home memo")
	}
}

// TestScalingSweepShapeAndLockAccounting checks the sweep skips invalid
// node counts and that the lock cycle accounting is populated.
func TestScalingSweepShapeAndLockAccounting(t *testing.T) {
	res, err := RunScaling([]int{2, 4}, []int{1, 2, 4}, 128, 0.002, false)
	if err != nil {
		t.Fatal(err)
	}
	// 2 CPUs: nodes 1,2. 4 CPUs: nodes 1,2,4. Each x 2 workloads x 2 shard
	// settings.
	if want := (2 + 3) * 2 * 2; len(res.Points) != want {
		t.Fatalf("sweep has %d points, want %d", len(res.Points), want)
	}
	if res.Point(2, 4, "prodcons", true, false) != nil {
		t.Fatal("sweep kept a 2-CPU/4-node point")
	}
	for _, p := range res.Points {
		if p.Pairs == 0 {
			t.Errorf("%d CPUs/%d nodes %s shards=%v completed no pairs", p.CPUs, p.Nodes, p.Workload, p.Shards)
		}
		if p.LockAcqs == 0 || p.LockHoldCycles == 0 {
			t.Errorf("%d CPUs/%d nodes %s shards=%v: lock accounting dead (acqs=%d hold=%d)",
				p.CPUs, p.Nodes, p.Workload, p.Shards, p.LockAcqs, p.LockHoldCycles)
		}
		if p.Nodes == 1 && (p.RemoteFrees != 0 || p.RemotePuts != 0 || p.ShardFlushes != 0) {
			t.Errorf("single-node point shows remote traffic: %+v", p)
		}
	}
	if _, err := RunScaling([]int{3}, []int{1}, 128, 0.001, false); err == nil {
		t.Fatal("odd CPU count accepted")
	}
	if _, err := RunScaling([]int{4}, []int{1}, 128, 0, false); err == nil {
		t.Fatal("zero window accepted")
	}
}
