package core

import (
	"fmt"
	"io"
)

// Dump writes a human-readable snapshot of every layer to w: per-class
// cache occupancy, global-pool contents, page-pool occupancy histograms,
// and the vmblk layer's span map. Like CheckConsistency, it must only be
// called on a quiescent allocator; it takes no locks and charges nothing.
func (a *Allocator) Dump(w io.Writer) {
	fmt.Fprintf(w, "kmem allocator: %d CPUs, %d size classes, page %d bytes, vmblk %d bytes\n",
		len(a.percpu), len(a.classes), a.m.Config().PageBytes, uint64(1)<<a.vmblkShift)

	for cls := range a.classes {
		cs := &a.classes[cls]
		fmt.Fprintf(w, "\nclass %d: size %d, target %d, gbltarget %d\n",
			cls, cs.size, cs.target, cs.gbltarget)
		for cpu := range a.percpu {
			pc := &a.percpu[cpu][cls]
			if pc.ev[EvAlloc] == 0 && pc.held(a.shardsOf(cpu, cls)) == 0 {
				continue
			}
			fmt.Fprintf(w, "  cpu %d: main %d + aux %d cached; %d allocs, %d frees, %d refills, %d spills",
				cpu, pc.main.Len(), pc.aux.Len(),
				pc.ev[EvAlloc], pc.ev[EvFree], pc.ev[EvCPURefill], pc.ev[EvCPUSpill])
			if pc.ev[EvSpillRouted] > 0 {
				fmt.Fprintf(w, "; %d blocks routed one by one", pc.ev[EvSpillRouted])
			}
			fmt.Fprintln(w)
		}
		for _, g := range cs.globals {
			label := "global"
			if a.nodes > 1 {
				label = fmt.Sprintf("global[node %d]", g.node)
			}
			fmt.Fprintf(w, "  %s: %d full lists + %d in bucket; %d gets (%d refills), %d puts (%d spills)",
				label, len(g.lists), g.bucket.Len(),
				g.ev[EvGlobalGet], g.ev[EvGlobalRefill], g.ev[EvGlobalPut], g.ev[EvGlobalSpill])
			if g.ev[EvRemoteFree]+g.ev[EvNodeSteal] > 0 {
				fmt.Fprintf(w, "; %d remote frees, %d stolen", g.ev[EvRemoteFree], g.ev[EvNodeSteal])
			}
			fmt.Fprintln(w)
		}

		var carved, released, refiled uint64
		blocksPerPage := cs.pages[0].blocksPerPage
		for _, p := range cs.pages {
			carved += p.ev[EvPageCarve]
			released += p.ev[EvPageFree]
			refiled += p.ev[EvPageRefile]
		}
		fmt.Fprintf(w, "  pages: %d carved, %d released, %d refiled; split-page occupancy:", carved, released, refiled)
		// Histogram of free counts over split pages.
		counts := map[int]int{}
		for _, vb := range a.vm.dope {
			if vb == nil {
				continue
			}
			for i := vb.dataStart(); i < vb.end(); i++ {
				pd := &vb.pds[i-vb.firstPage]
				if pd.state == pdSplit && int(pd.class) == cls {
					counts[int(pd.nFree)]++
				}
			}
		}
		if len(counts) == 0 {
			fmt.Fprintf(w, " none\n")
		} else {
			fmt.Fprintln(w)
			for free := 0; free <= blocksPerPage; free++ {
				if n := counts[free]; n > 0 {
					fmt.Fprintf(w, "    %4d pages with %d/%d blocks free\n", n, free, blocksPerPage)
				}
			}
		}
	}

	fmt.Fprintf(w, "\nvmblk layer: %d vmblks, %d span allocs, %d span frees, %d large allocs\n",
		a.vm.ev[EvVmblkCreate], a.vm.ev[EvSpanAlloc], a.vm.ev[EvSpanFree], a.vm.ev[EvLargeAlloc])
	for idx, vb := range a.vm.dope {
		if vb == nil {
			continue
		}
		if a.nodes > 1 {
			fmt.Fprintf(w, "  vmblk %d @ %#x: node %d, %d header pages; map:", idx, vb.base, vb.home, vb.headerPages)
		} else {
			fmt.Fprintf(w, "  vmblk %d @ %#x: %d header pages; map:", idx, vb.base, vb.headerPages)
		}
		i := vb.dataStart()
		for i < vb.end() {
			pd := &vb.pds[i-vb.firstPage]
			switch pd.state {
			case pdFreeHead:
				n := int32(pd.spanPages)
				fmt.Fprintf(w, " free[%d]", n)
				i += n
			case pdAllocHead:
				n := int32(pd.spanPages)
				fmt.Fprintf(w, " alloc[%d]", n)
				i += n
			case pdSplit:
				run := int32(0)
				for i+run < vb.end() && vb.pds[i+run-vb.firstPage].state == pdSplit {
					run++
				}
				fmt.Fprintf(w, " split[%d]", run)
				i += run
			default:
				fmt.Fprintf(w, " %s[1]", pdStateName(pd.state))
				i++
			}
		}
		fmt.Fprintln(w)
	}
	ph := a.m.Phys().Stats()
	fmt.Fprintf(w, "physical: %d/%d pages mapped (high water %d), %d map failures, %d reclaims\n",
		ph.Mapped, ph.Capacity, ph.HighWater, ph.Failures, a.ev[EvReclaim].Load())
}
