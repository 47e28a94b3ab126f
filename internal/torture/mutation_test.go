//go:build torturecheck

package torture

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"kmem/internal/core"
)

// The mutation self-check: prove the oracle has teeth by arming the
// planted bugs (see core/torturebug.go) and asserting the harness
// catches each from a fixed seed within one run's op budget. A torture
// harness that cannot catch known bugs is decoration.
//
// These tests mutate global allocator behavior, so the package's tests
// must not run in parallel with them (none are marked Parallel).

// mutationCfg is the fixed detection config: multi-node (so the shard
// path is live), large-heavy traffic (so span coalescing churns), one
// fixed workload seed and one fixed jitter seed. N = Ops = 2000 is the
// detection bound the satellite task asks for.
var mutationCfg = Config{CPUs: 4, Nodes: 2, Ops: 2000, Seed: 7, JitterSeed: 3}

func TestMutationShardFlushBugCaught(t *testing.T) {
	core.SetTortureBug(core.TortureBugSkipShardFlush, true)
	defer core.SetTortureBug(core.TortureBugSkipShardFlush, false)
	rep, err := New(mutationCfg).Run()
	if err == nil {
		t.Fatalf("planted shard-flush bug went undetected in %d ops", rep.OpsExecuted)
	}
	t.Logf("caught in %d ops: %v", rep.OpsExecuted, err)
	if !strings.Contains(err.Error(), "leak") && !strings.Contains(err.Error(), "shard") {
		t.Errorf("failure does not look like the planted leak: %v", err)
	}
}

func TestMutationDropRightMergeBugCaught(t *testing.T) {
	core.SetTortureBug(core.TortureBugDropRightMerge, true)
	defer core.SetTortureBug(core.TortureBugDropRightMerge, false)
	rep, err := New(mutationCfg).Run()
	if err == nil {
		t.Fatalf("planted right-merge bug went undetected in %d ops", rep.OpsExecuted)
	}
	t.Logf("caught in %d ops: %v", rep.OpsExecuted, err)
	if !strings.Contains(err.Error(), "coalesce") && !strings.Contains(err.Error(), "span") {
		t.Errorf("failure does not look like the planted missed merge: %v", err)
	}
}

// lfMutationCfg is the detection config for the lock-free stack's ABA
// plant: the bug only fires on a contended CAS pop (a commit that had to
// retry), so it needs many CPUs sharing one node's global pools, the
// lock-free layer on, and a jittered schedule to interleave the commit
// windows.
// The tight working set and small max size concentrate traffic in a few
// size classes, so global-pool commits overlap often enough for retried
// pops — the only ops the plant corrupts — to stack up inside N = 2000.
var lfMutationCfg = Config{
	CPUs: 8, Nodes: 1, Ops: 2000, Seed: 7,
	LockFree: true, WorkingSet: 384, MaxSize: 512,
}

func TestMutationLFStackABABugCaught(t *testing.T) {
	core.SetTortureBug(core.TortureBugLFStackABA, true)
	defer core.SetTortureBug(core.TortureBugLFStackABA, false)
	rep, err := New(lfMutationCfg).Run()
	if err == nil {
		t.Fatalf("planted lock-free ABA bug went undetected in %d ops", rep.OpsExecuted)
	}
	t.Logf("caught in %d ops: %v", rep.OpsExecuted, err)
	if !strings.Contains(err.Error(), "leak") && !strings.Contains(err.Error(), "consistency") &&
		!strings.Contains(err.Error(), "block") {
		t.Errorf("failure does not look like the planted lost update: %v", err)
	}
}

// stalePureCfg is the detection config for the stale node-purity plant:
// the bug needs a cross-node steal, so physical memory is short enough
// that a node's pool and page layer run dry while the other node's pool
// holds blocks, and the audit runs after every op — it must see the
// stolen blocks in the unmarked cache before a spill carries them into
// the wrong pool, where the page layer's home assertion would panic.
var stalePureCfg = Config{CPUs: 4, Nodes: 2, Ops: 2000, Seed: 7, JitterSeed: 3, PhysPages: 64, CheckEvery: 1}

func TestMutationStaleNodePureBugCaught(t *testing.T) {
	if rep, err := New(stalePureCfg).Run(); err != nil {
		t.Fatalf("disarmed run fails after %d ops: %v", rep.OpsExecuted, err)
	}
	core.SetTortureBug(core.TortureBugStaleNodePure, true)
	defer core.SetTortureBug(core.TortureBugStaleNodePure, false)
	rep, err := New(stalePureCfg).Run()
	if err == nil {
		t.Fatalf("planted stale node-purity bug went undetected in %d ops", rep.OpsExecuted)
	}
	t.Logf("caught in %d ops: %v", rep.OpsExecuted, err)
	if !strings.Contains(err.Error(), "homed on node") {
		t.Errorf("failure does not look like the planted stale bit: %v", err)
	}
}

// staleHeadCfg is the detection config for the contended spill's
// stale-head plant: the bug needs a spill that meets another CPU's hold
// on a page pool and carries two blocks of one page, so eight CPUs free
// 16-byte blocks in session-close bursts over a large working set, and
// the audit runs after every op — it must see the page whose free count
// outran its freelist before a refill walks the short chain. Jitter seed
// 1: since every page is cut in one order, no spill of the run at seeds
// 7/3 meets a held page-pool lock in 10,000 ops.
var staleHeadCfg = Config{
	CPUs: 8, Nodes: 1, Ops: 10000, Seed: 7, JitterSeed: 1,
	Serve: true, WorkingSet: 2048, MaxSize: 16, CheckEvery: 1,
}

func TestMutationPrepassStaleHeadBugCaught(t *testing.T) {
	if rep, err := New(staleHeadCfg).Run(); err != nil {
		t.Fatalf("disarmed run fails after %d ops: %v", rep.OpsExecuted, err)
	}
	core.SetTortureBug(core.TortureBugPrepassStaleHead, true)
	defer core.SetTortureBug(core.TortureBugPrepassStaleHead, false)
	rep, err := New(staleHeadCfg).Run()
	if err == nil {
		t.Fatalf("planted stale-head bug went undetected in %d ops", rep.OpsExecuted)
	}
	t.Logf("caught in %d ops: %v", rep.OpsExecuted, err)
	if !strings.Contains(err.Error(), "freelist has") {
		t.Errorf("failure does not look like the planted lost update: %v", err)
	}
}

// tailOverlapCfg is the detection config for the uncarved-tail plant: a
// stock MatrixSmall config at the shared seeds, with the audit after
// every op. A block handed out twice shows up as a live block
// overwritten by its second owner, or as a block on two lists. The block
// below a drawn tail heads a list cut before, so once a refill links the
// plant's list through it the other list walks short of what it declares
// — the audit must see the block on both lists first.
func tailOverlapCfg(t *testing.T) Config {
	for _, c := range MatrixSmall() {
		if c.Name() == "c4n2-faults" {
			c.Ops, c.Seed, c.JitterSeed, c.CheckEvery = 2000, 7, 3, 1
			return c
		}
	}
	t.Fatal("MatrixSmall has no c4n2-faults config")
	return Config{}
}

func TestMutationTailOverlapBugCaught(t *testing.T) {
	cfg := tailOverlapCfg(t)
	if rep, err := New(cfg).Run(); err != nil {
		t.Fatalf("disarmed run fails after %d ops: %v", rep.OpsExecuted, err)
	}
	core.SetTortureBug(core.TortureBugTailOverlap, true)
	defer core.SetTortureBug(core.TortureBugTailOverlap, false)
	rep, err := New(cfg).Run()
	if err == nil {
		t.Fatalf("planted tail-overlap bug went undetected in %d ops", rep.OpsExecuted)
	}
	t.Logf("caught in %d ops: %v", rep.OpsExecuted, err)
	if msg := err.Error(); !strings.Contains(msg, "while live") && !strings.Contains(msg, "overlaps") &&
		!strings.Contains(msg, "longer than declared") && !strings.Contains(msg, "on both") {
		t.Errorf("failure does not look like a block handed out twice: %v", err)
	}
}

// readyLeakCfg is the detection config for the forgotten ready stock. No
// stock MatrixSmall config catches it: none of them has a pool holding a
// stock when its ops end (most never arm one), because a pool arms only
// after four contended refills in a row that each carve a fresh page,
// and the first page it releases returns its stock. Here four CPUs share
// one node's pools and requests stop at 128 bytes, so two in three land
// in the 128-byte class. Each of its refills carves about five fresh
// pages, and a page goes back only when all 32 of its blocks have come
// home, so over a long run the pool often ends holding its stock (ten
// of the first sixteen seeds do; seed 7 did until lists began to run
// across ready pages, which moved when pages are carved, and seed 2 is
// the first that does now). The end audit's first drain must return it.
var readyLeakCfg = Config{CPUs: 4, Nodes: 1, Ops: 10000, Seed: 2, JitterSeed: 3, MaxSize: 128, WorkingSet: 4096}

func TestMutationReadyLeakBugCaught(t *testing.T) {
	if rep, err := New(readyLeakCfg).Run(); err != nil {
		t.Fatalf("disarmed run fails after %d ops: %v", rep.OpsExecuted, err)
	}
	core.SetTortureBug(core.TortureBugReadyLeak, true)
	defer core.SetTortureBug(core.TortureBugReadyLeak, false)
	rep, err := New(readyLeakCfg).Run()
	if err == nil {
		t.Fatalf("planted ready-stock leak went undetected in %d ops", rep.OpsExecuted)
	}
	t.Logf("caught in %d ops: %v", rep.OpsExecuted, err)
	if !strings.Contains(err.Error(), "ready pages") {
		t.Errorf("failure does not look like the planted forgotten stock: %v", err)
	}
}

// runStraddleCfg is the detection config for the run that straddles a
// page without cutting its tail. No stock MatrixSmall config catches it
// (none fails in 2,000 ops at seeds 7/3 or 1/0): a list runs across a
// page boundary only when a pool has armed and its stock holds the next
// page, and the stock configs either split their CPUs over nodes, so no
// pool sees four contended carving refills in a row, or run too few
// CPUs to contend. It is readyLeakCfg's setting at seed 7 — four CPUs
// on one node's pools, requests up to 128 bytes, so the 128-byte class
// arms and its 10-block lists straddle 32-block pages — and the audit,
// run after every op, meets a block handed out a second time while it
// still sits on a list. Audited only every 128 ops, the run hands such a
// block out and the poison check panics first (TestMutationPanicIsFailure).
var runStraddleCfg = Config{CPUs: 4, Nodes: 1, Ops: 6000, Seed: 7, JitterSeed: 3, MaxSize: 128, WorkingSet: 4096, CheckEvery: 1}

func TestMutationRunStraddleBugCaught(t *testing.T) {
	if rep, err := New(runStraddleCfg).Run(); err != nil {
		t.Fatalf("disarmed run fails after %d ops: %v", rep.OpsExecuted, err)
	}
	core.SetTortureBug(core.TortureBugRunStraddle, true)
	defer core.SetTortureBug(core.TortureBugRunStraddle, false)
	rep, err := New(runStraddleCfg).Run()
	if err == nil {
		t.Fatalf("planted run-straddle bug went undetected in %d ops", rep.OpsExecuted)
	}
	t.Logf("caught in %d ops: %v", rep.OpsExecuted, err)
	if msg := err.Error(); !strings.Contains(msg, "tail") && !strings.Contains(msg, "while live") &&
		!strings.Contains(msg, "overlaps") && !strings.Contains(msg, "on both") {
		t.Errorf("failure does not look like a block handed out twice: %v", err)
	}
}

// TestMutationPanicIsFailure: an allocator panic inside an op is the
// run's failure at that op, not a crash of the harness. runStraddleCfg
// audited at the default cadence hands a block out a second time, and the
// poison check panics ("modified while free") in the allocation that
// meets it.
func TestMutationPanicIsFailure(t *testing.T) {
	core.SetTortureBug(core.TortureBugRunStraddle, true)
	defer core.SetTortureBug(core.TortureBugRunStraddle, false)
	cfg := runStraddleCfg
	cfg.CheckEvery = 0
	r := New(cfg)
	_, err := r.Run()
	var f *Failure
	if !errors.As(err, &f) || f.OpIndex < 0 || !strings.HasPrefix(f.Msg, "panic: kmem: ") {
		t.Fatalf("run returned %v; want the panic as the failure of an op", err)
	}
	if k := r.Ops()[f.OpIndex].Kind; k != OpAlloc && k != OpAllocWait {
		t.Errorf("failure names op %d, %v; want the allocation that met the broken poison", f.OpIndex, k)
	}
	t.Logf("caught: %v", err)
}

// TestMutationLFStackABAShrinks runs the failure pipeline on the ABA
// plant: catch, delta-debug, and confirm the shrunk repro still
// reproduces and is materially smaller.
func TestMutationLFStackABAShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking replays the harness many times")
	}
	core.SetTortureBug(core.TortureBugLFStackABA, true)
	defer core.SetTortureBug(core.TortureBugLFStackABA, false)
	r := ReproOf(New(lfMutationCfg))
	if !r.Fails() {
		t.Fatal("armed ABA bug did not fail the full repro")
	}
	shrunk := ShrinkFailure(r)
	if !shrunk.Fails() {
		t.Fatal("shrunk ABA repro no longer reproduces")
	}
	if len(shrunk.Ops) > len(r.Ops)/4 {
		t.Errorf("shrink only reached %d of %d ops", len(shrunk.Ops), len(r.Ops))
	}
	t.Logf("shrunk %d ops -> %d", len(r.Ops), len(shrunk.Ops))
}

// TestMutationShrinksToSmallRepro runs the full failure pipeline on a
// planted bug: catch it, delta-debug the op sequence, and confirm the
// shrunk repro still reproduces and is materially smaller.
func TestMutationShrinksToSmallRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking replays the harness many times")
	}
	core.SetTortureBug(core.TortureBugDropRightMerge, true)
	defer core.SetTortureBug(core.TortureBugDropRightMerge, false)
	r := ReproOf(New(mutationCfg))
	if !r.Fails() {
		t.Fatal("armed bug did not fail the full repro")
	}
	shrunk := ShrinkFailure(r)
	if !shrunk.Fails() {
		t.Fatal("shrunk repro no longer reproduces")
	}
	if len(shrunk.Ops) > len(r.Ops)/4 {
		t.Errorf("shrink only reached %d of %d ops", len(shrunk.Ops), len(r.Ops))
	}
	t.Logf("shrunk %d ops -> %d", len(r.Ops), len(shrunk.Ops))
}

// TestMutationCleanWhenDisarmed pins that merely building with the
// torturecheck tag changes nothing: with both bugs disarmed the fixed
// seed runs clean.
func TestMutationCleanWhenDisarmed(t *testing.T) {
	if _, err := New(mutationCfg).Run(); err != nil {
		t.Fatalf("disarmed torturecheck build fails the fixed seed: %v", err)
	}
}

// TestCommittedReprosCatchPlantedBugs replays each committed artifact
// with its matching bug armed: the minimal repro must still reproduce
// the failure it was shrunk from. This keeps the testdata artifacts
// honest against allocator drift.
func TestCommittedReprosCatchPlantedBugs(t *testing.T) {
	cases := map[string]int{
		"shardflush":  core.TortureBugSkipShardFlush,
		"rightmerge":  core.TortureBugDropRightMerge,
		"lfstackaba":  core.TortureBugLFStackABA,
		"stalepure":   core.TortureBugStaleNodePure,
		"stalehead":   core.TortureBugPrepassStaleHead,
		"tailoverlap": core.TortureBugTailOverlap,
	}
	for prefix, bug := range cases {
		paths, err := filepath.Glob(filepath.Join("testdata", prefix+"-*.torture.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatalf("no committed %s repro", prefix)
		}
		for _, p := range paths {
			t.Run(filepath.Base(p), func(t *testing.T) {
				r, err := LoadRepro(p)
				if err != nil {
					t.Fatal(err)
				}
				core.SetTortureBug(bug, true)
				defer core.SetTortureBug(bug, false)
				if !r.Fails() {
					t.Fatal("committed repro no longer reproduces with its bug armed")
				}
			})
		}
	}
}
