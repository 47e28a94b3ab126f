package core

// Planted-bug identifiers for the torture harness's mutation self-check.
// A correctness harness is only worth trusting if it demonstrably fails
// when the allocator is broken, so under the torturecheck build tag a few
// historically-plausible bugs can be armed at runtime (see
// torturebug_on.go); in normal builds the hooks are constant-false
// branches the compiler deletes (torturebug_off.go).
const (
	// TortureBugSkipShardFlush makes DrainCPU drop its flush of the
	// staged remote-free shards: blocks parked for other nodes never
	// reach their home pools, so a drain leaks them and a fully-freed
	// heap never returns to its header-pages-only footprint.
	TortureBugSkipShardFlush = iota
	// TortureBugDropRightMerge makes freePagesLocked skip the rightward
	// boundary-tag coalesce, leaving adjacent free spans that the
	// consistency audit's coalescing invariant rejects.
	TortureBugDropRightMerge
	// TortureBugLFStackABA strips the lock-free global stack's ABA tag:
	// a contended pop (one whose CAS commit had to retry) installs the
	// stale next snapshot from before the retry, dropping the list
	// beneath the top — the lost update the tag/epoch scheme exists to
	// prevent. The leaked blocks keep their pages mapped forever, which
	// the torture end-audit's leak floor detects after a full drain.
	TortureBugLFStackABA
	// TortureBugStaleNodePure makes a refill stolen from another node
	// leave the cache marked node-pure: its next spill or drain would
	// hand the stolen blocks to its own node's pool. The consistency
	// audit rejects the unmarked cache.
	TortureBugStaleNodePure
	// TortureBugPrepassStaleHead makes a contended spill's pre-pass link
	// each block to the pd.freeHead it read before the pool's lock, and
	// the apply step publish it without re-reading the head: when two
	// blocks of one page share a spill, the first one applied is lost. The
	// page's free count then exceeds its freelist, which the consistency
	// audit rejects.
	TortureBugPrepassStaleHead
	// TortureBugTailOverlap makes cutTail start a drawn page's uncarved
	// tail one block low: the block below the tail, the head of a list
	// cut before, is handed out a second time. Its two owners overwrite
	// each other, which the shadow model sees, or it sits on two lists at
	// once, which the consistency audit rejects.
	TortureBugTailOverlap
	// TortureBugReadyLeak makes globalPool.drainAll forget the page
	// pool's ready stock: pages backed ahead stay mapped after a drain,
	// which the torture end audit's first drain, run with the blocks
	// still live, rejects.
	TortureBugReadyLeak
	// TortureBugRunStraddle makes a list that runs on across a page
	// boundary (cutTail) leave the next page's uncarved tail uncut: the
	// blocks the run took there stay in the tail too, and go out a second
	// time. Their owners overwrite each other, which the shadow model
	// sees, or they sit on two lists at once, which the consistency
	// audit rejects.
	TortureBugRunStraddle

	numTortureBugs
)
