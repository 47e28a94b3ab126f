package core

import (
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
)

// CheckConsistency audits every data structure of the allocator and
// returns the first inconsistency found (nil when sound):
//
//   - vmblk page maps partition cleanly into header pages, free spans
//     with matching boundary tags, allocated spans, and split pages;
//   - every split page's freelist length plus its uncarved tail matches
//     its descriptor's free count, with every link inside the page and
//     block-aligned;
//   - the page pools' lists and the descriptors agree both ways: a page
//     on bucket k has filed == k <= nFree, the list walks reach exactly
//     the pages with filed != 0, and a split page with free blocks is
//     filed unless it is quarantined or in a ready stock;
//   - every ready page is a resident split page of its pool's class,
//     homed on its node, with every block in its uncarved tail (none
//     handed out), filed in no bucket and in no other stock, and each
//     pool's reservation count equals its stock;
//   - no block appears on two freelists (page, global or per-CPU) or on
//     a freelist and in its page's uncarved tail — a double free or list
//     corruption would trip this;
//   - cached blocks belong to split pages of the correct class, and in a
//     global pool, remote shard or node-pure CPU cache to its node;
//   - every page's residency flags match its state: header, allocated
//     and split pages are resident; free-span pages are resident,
//     scrubbed (with the scrub fill verified byte-for-byte), or never
//     backed, and never resident under the decommit-on-free policy; every
//     free span's head counts exactly its resident pages;
//   - physical-page accounting agrees with the flags: resident pages
//     sum to physmem's Mapped, vmblk spans to its Reserved.
//
// CheckConsistency must only be called on a quiescent allocator (no
// concurrent operations); it takes no locks and charges no simulated
// cycles.
func (a *Allocator) CheckConsistency() error {
	pageBytes := a.m.Config().PageBytes
	seen := make(map[arena.Addr]string)
	note := func(b arena.Addr, where string) error {
		if prev, dup := seen[b]; dup {
			return fmt.Errorf("kmem: block %#x on both %s and %s", b, prev, where)
		}
		seen[b] = where
		return nil
	}

	var residentPages, reservedPages int64
	var filedPages, reachedPages int        // split pages with filed != 0; pages the list walks reach
	splitByClass := make(map[int32]int, 64) // page -> class for cache validation

	// Ready stocks first: the page walk below exempts their pages from
	// the filed-if-free rule, and notes their tails like any other.
	ready := make(map[int32]bool)
	for cls := range a.classes {
		for _, p := range a.classes[cls].pages {
			if n := p.stocked.Load(); int(n) != len(p.ready) {
				return fmt.Errorf("kmem: class %d node %d reserves %d stock pages, holds %d", cls, p.node, n, len(p.ready))
			}
			for _, r := range p.ready {
				pd := a.vm.pdOf(r.pg)
				switch {
				case ready[r.pg]:
					return fmt.Errorf("kmem: ready page %d in two stocks", r.pg)
				case pd.state != pdSplit || int(pd.class) != cls || pd.flags != pdfResident:
					return fmt.Errorf("kmem: class %d ready page %d is %s class %d flags %#x",
						cls, r.pg, pdStateName(pd.state), pd.class, pd.flags)
				case int(pd.nFree) != p.blocksPerPage || pd.tail() != p.blocksPerPage || pd.freeHead != arena.NilAddr:
					return fmt.Errorf("kmem: class %d ready page %d has %d free, a %d-block tail, of %d",
						cls, r.pg, pd.nFree, pd.tail(), p.blocksPerPage)
				case pd.filed != 0:
					return fmt.Errorf("kmem: class %d ready page %d filed in bucket %d", cls, r.pg, pd.filed)
				case a.vm.nodeOfPage(r.pg) != p.node:
					return fmt.Errorf("kmem: class %d node %d stock holds page %d homed on node %d",
						cls, p.node, r.pg, a.vm.nodeOfPage(r.pg))
				}
				ready[r.pg] = true
			}
		}
	}

	for _, vb := range a.vm.dope {
		if vb == nil {
			continue
		}
		reservedPages += int64(vb.pages)
		for j := int32(0); j < vb.headerPages; j++ {
			if f := vb.pds[j].flags; f != pdfResident {
				return fmt.Errorf("kmem: header page %d has flags %#x, want resident", vb.firstPage+j, f)
			}
		}
		residentPages += int64(vb.headerPages)
		i := vb.dataStart()
		prevFree := false
		for i < vb.end() {
			pd := &vb.pds[i-vb.firstPage]
			if pd.state != pdFreeHead {
				prevFree = false
			}
			switch pd.state {
			case pdFreeHead:
				n := int32(pd.spanPages)
				if n < 1 || i+n > vb.end() {
					return fmt.Errorf("kmem: free span at page %d has bad length %d", i, n)
				}
				// Coalescing invariant: two free spans must never touch —
				// freePages merges both directions, so an adjacent pair
				// means a boundary-tag merge was missed.
				if prevFree {
					return fmt.Errorf("kmem: free span at page %d adjoins the previous free span (missed coalesce)", i)
				}
				prevFree = true
				if n > 1 {
					tail := &vb.pds[i+n-1-vb.firstPage]
					if tail.state != pdFreeTail || tail.spanPages != uint32(n) {
						return fmt.Errorf("kmem: free span at page %d length %d: tail tag %s/%d",
							i, n, pdStateName(tail.state), tail.spanPages)
					}
				}
				var backed uint32
				for j := int32(0); j < n; j++ {
					switch f := vb.pds[i+j-vb.firstPage].flags; f {
					case 0:
						// Never backed since its vmblk was carved.
					case pdfResident:
						if a.vm.decommitOnFree {
							return fmt.Errorf("kmem: free page %d resident under decommit-on-free", i+j)
						}
						residentPages++
						backed++
					case pdfScrubbed:
						if off, ok := a.mem.CheckFill(a.vm.pageAddr(i+j), pageBytes, decommitScrub); !ok {
							return fmt.Errorf("kmem: decommitted page %d dirty at offset %d", i+j, off)
						}
					default:
						return fmt.Errorf("kmem: free page %d has bad flags %#x", i+j, f)
					}
				}
				// The decommit pass trusts the head's count to skip and to
				// stop early; a drifted count strands frames or walks off.
				if pd.resident != backed {
					return fmt.Errorf("kmem: free span at page %d counts %d resident pages, descriptors say %d",
						i, pd.resident, backed)
				}
				i += n
			case pdAllocHead:
				n := int32(pd.spanPages)
				if n < 1 || i+n > vb.end() {
					return fmt.Errorf("kmem: alloc span at page %d has bad length %d", i, n)
				}
				for j := int32(0); j < n; j++ {
					pp := &vb.pds[i+j-vb.firstPage]
					if j > 0 && pp.state != pdAllocMid {
						return fmt.Errorf("kmem: alloc span at page %d: interior page %d is %s",
							i, i+j, pdStateName(pp.state))
					}
					if pp.flags != pdfResident {
						return fmt.Errorf("kmem: alloc page %d has flags %#x, want resident", i+j, pp.flags)
					}
				}
				residentPages += int64(n)
				i += n
			case pdSplit:
				cls := int(pd.class)
				if cls < 0 || cls >= len(a.classes) {
					return fmt.Errorf("kmem: split page %d has bad class %d", i, pd.class)
				}
				size := uint64(a.classes[cls].size)
				perPage := pageBytes / size
				if uint64(pd.nFree) > perPage {
					return fmt.Errorf("kmem: split page %d has %d free of %d", i, pd.nFree, perPage)
				}
				base := a.vm.pageAddr(i)
				count := uint64(0)
				for b := pd.freeHead; b != arena.NilAddr; b = a.mem.Load64(b) {
					if b < base || b >= base+pageBytes || (b-base)%size != 0 {
						return fmt.Errorf("kmem: split page %d freelist link %#x outside page", i, b)
					}
					if err := note(b, fmt.Sprintf("page %d freelist", i)); err != nil {
						return err
					}
					count++
					if count > perPage {
						return fmt.Errorf("kmem: split page %d freelist longer than page", i)
					}
				}
				tail := uint64(pd.tail())
				if count+tail != uint64(pd.nFree) {
					return fmt.Errorf("kmem: split page %d freelist has %d blocks and a %d-block tail, descriptor says %d",
						i, count, tail, pd.nFree)
				}
				for j := perPage - tail; j < perPage; j++ {
					if err := note(base+arena.Addr(j*size), fmt.Sprintf("page %d tail", i)); err != nil {
						return err
					}
				}
				if pd.flags&^pdfQuarantined != pdfResident {
					return fmt.Errorf("kmem: split page %d has flags %#x, want resident", i, pd.flags)
				}
				if pd.filed != 0 {
					filedPages++
				} else if pd.nFree > 0 && pd.flags&pdfQuarantined == 0 && !ready[i] {
					return fmt.Errorf("kmem: split page %d has %d free blocks but is filed nowhere", i, pd.nFree)
				}
				splitByClass[i] = cls
				residentPages++
				i++
			default:
				return fmt.Errorf("kmem: page %d in unexpected state %s", i, pdStateName(pd.state))
			}
		}
	}

	// Page-pool lists: each filed page must be split, in this class, homed
	// on the pool's own node, and filed where its descriptor says — with
	// no more free blocks claimed than it has (filing is lazy: the count
	// may have grown since).
	for cls := range a.classes {
		for _, p := range a.classes[cls].pages {
			checkList := func(l *pdList, bucket int) error {
				for pg := l.head; pg != -1; {
					pd := a.vm.pdOf(pg)
					if pd.state != pdSplit || int(pd.class) != cls {
						return fmt.Errorf("kmem: class %d bucket holds page %d (%s class %d)",
							cls, pg, pdStateName(pd.state), pd.class)
					}
					if int(pd.filed) != bucket || pd.nFree < pd.filed {
						return fmt.Errorf("kmem: class %d bucket %d holds page %d filed in %d with %d free",
							cls, bucket, pg, pd.filed, pd.nFree)
					}
					if pd.flags&pdfQuarantined != 0 {
						return fmt.Errorf("kmem: class %d list holds quarantined page %d", cls, pg)
					}
					if home := a.vm.nodeOfPage(pg); home != p.node {
						return fmt.Errorf("kmem: class %d node %d pool holds page %d homed on node %d",
							cls, p.node, pg, home)
					}
					reachedPages++
					pg = pd.next
				}
				return nil
			}
			for k := 1; k < len(p.buckets); k++ {
				if err := checkList(&p.buckets[k], k); err != nil {
					return err
				}
			}
		}
	}
	// Every reached page has filed == its bucket, so the walks are
	// disjoint: equal counts mean no descriptor claims a list that does
	// not hold it.
	if reachedPages != filedPages {
		return fmt.Errorf("kmem: %d split pages say they are filed, the list walks reach %d", filedPages, reachedPages)
	}

	// Cached blocks at the global and per-CPU layers: each must sit in a
	// split page of its class and appear only once anywhere. A list that
	// must also hold only blocks homed on one node — a global pool's
	// lists and bucket (the home-node invariant), a CPU's remote shards,
	// and the main and aux of a node-pure cache — names the node; -1
	// accepts any home. A global pool's lists may be runs (a refill's
	// unlinked blocks): List.Walk reaches their blocks by address.
	checkHomed := func(l blocklist.List, cls, node int, where string) error {
		count := 0
		var err error
		l.Walk(a.mem, func(b arena.Addr) bool {
			pg := int32(b >> a.pageShift)
			if pcls, ok := splitByClass[pg]; !ok || pcls != cls || (b-a.vm.pageAddr(pg))%arena.Addr(a.classes[cls].size) != 0 {
				err = fmt.Errorf("kmem: %s holds block %#x not in a class-%d split page", where, b, cls)
			} else if home := a.vm.nodeOfPage(pg); node >= 0 && home != node {
				err = fmt.Errorf("kmem: %s holds block %#x homed on node %d", where, b, home)
			} else if err = note(b, where); err == nil {
				if count++; count > l.Len() {
					err = fmt.Errorf("kmem: %s longer than declared %d", where, l.Len())
				}
			}
			return err == nil
		})
		if err == nil && count != l.Len() {
			err = fmt.Errorf("kmem: %s has %d blocks, declared %d", where, count, l.Len())
		}
		return err
	}
	for cls := range a.classes {
		for _, g := range a.classes[cls].globals {
			for li, l := range g.lists {
				if err := checkHomed(l, cls, g.node, fmt.Sprintf("class %d node %d global list %d", cls, g.node, li)); err != nil {
					return err
				}
			}
			if err := checkHomed(g.bucket, cls, g.node, fmt.Sprintf("class %d node %d global bucket", cls, g.node)); err != nil {
				return err
			}
		}
		for cpu := range a.percpu {
			pc := &a.percpu[cpu][cls]
			// A node-pure cache spills without looking: its blocks must
			// all be homed on the CPU's own node.
			pure := -1
			if !pc.mixed {
				pure = a.m.NodeOf(cpu)
			}
			if err := checkHomed(pc.main, cls, pure, fmt.Sprintf("cpu %d class %d main", cpu, cls)); err != nil {
				return err
			}
			if err := checkHomed(pc.aux, cls, pure, fmt.Sprintf("cpu %d class %d aux", cpu, cls)); err != nil {
				return err
			}
			// Remote shards: every staged block must be homed on the
			// shard's node (by construction the sharded free path never
			// stages a local block, and shard k only ever receives
			// node-k-homed blocks).
			shards := a.shardsOf(cpu, cls)
			for node := range shards {
				sh := &shards[node]
				if node == a.m.NodeOf(cpu) && !sh.Empty() {
					return fmt.Errorf("kmem: cpu %d class %d stages local blocks in its own node-%d shard", cpu, cls, node)
				}
				if err := checkHomed(*sh, cls, node, fmt.Sprintf("cpu %d class %d shard %d", cpu, cls, node)); err != nil {
					return err
				}
			}
		}
	}

	if got := a.m.Phys().Mapped(); got != residentPages {
		return fmt.Errorf("kmem: physmem reports %d resident pages, structures account for %d",
			got, residentPages)
	}
	if got := a.m.Phys().Reserved(); got != reservedPages {
		return fmt.Errorf("kmem: physmem reports %d reserved pages, vmblk spans total %d",
			got, reservedPages)
	}
	return nil
}

// HomeOf returns the NUMA home node of the page holding address b (0 on
// a single-node machine). Uncharged and lock-free: intended for oracles
// and tests inspecting a quiescent allocator, where the torture
// harness's shadow model checks each block's home against the dope
// vector after every operation.
func (a *Allocator) HomeOf(b arena.Addr) int {
	return a.vm.nodeOfPage(int32(b >> a.pageShift))
}

// RoundedSize returns the size the allocator actually reserves for a
// request: the size class's block size for small requests, the
// page-rounded size for large ones. Uncharged; used by shadow oracles to
// compute the true extent of a live block when checking for overlap.
// With hardening on the redzone is part of the reserved footprint, so
// the usable rounded size is the class (or page-rounded) size minus the
// redzone; usable extents of distinct blocks still never overlap. A size
// Alloc refuses with ErrBadSize rounds to 0.
func (a *Allocator) RoundedSize(size uint64) uint64 {
	if a.badSize(size) {
		return 0
	}
	var rz uint64
	if a.hd != nil {
		rz = a.hd.rz
	}
	if cls, small := a.classOf(size); small {
		return uint64(a.classes[cls].size) - rz
	}
	pb := a.m.Config().PageBytes
	return (size+rz+pb-1)/pb*pb - rz
}

// ReadyPages returns the pages held in every page pool's ready stock,
// backed ahead of a refill (DESIGN.md §5). Uncharged and lock-free, for
// tests and the torture harness inspecting a quiescent allocator: after
// DrainAll it is 0.
func (a *Allocator) ReadyPages() int {
	n := 0
	for cls := range a.classes {
		for _, p := range a.classes[cls].pages {
			n += len(p.ready)
		}
	}
	return n
}

// HeaderPages returns the total header pages of every vmblk created so
// far — the mapped-page floor a fully freed, fully drained allocator
// settles at ("the physical memory is returned to the system; the
// virtual memory is retained"). Uncharged; the torture harness's leak
// check compares physmem's Mapped against exactly this number at the end
// of a run.
func (a *Allocator) HeaderPages() int64 {
	var n int64
	for _, vb := range a.vm.dope {
		if vb != nil {
			n += int64(vb.headerPages)
		}
	}
	return n
}
