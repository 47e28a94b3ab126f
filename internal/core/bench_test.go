package core

import (
	"fmt"
	"testing"

	"kmem/internal/machine"
)

// BenchmarkTrimColdSpan times one voluntary decommit pass over a 64 MB
// lazy vmblk in the state a long-running allocator leaves it: 32 backed
// free pages in one short span beside a 16k-page span that was never
// touched. Each iteration backs the short span again (one 32-page
// allocation, freed) and trims it; the pass must cost those 32 pages,
// not the vmblk. CI runs it with -benchtime 1x so it keeps compiling.
func BenchmarkTrimColdSpan(b *testing.B) {
	cfg := machine.DefaultConfig() // 64 MB arena: one vmblk
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	a, err := New(m, Params{LazySpans: true})
	if err != nil {
		b.Fatal(err)
	}
	c := m.CPU(0)
	size := 32 * cfg.PageBytes
	warm, err := a.Alloc(c, size)
	if err != nil {
		b.Fatal(err)
	}
	// One allocated page keeps the short span from merging with the tail.
	if _, err := a.Alloc(c, cfg.PageBytes); err != nil {
		b.Fatal(err)
	}
	a.Free(c, warm, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := a.Trim(c, -1); n != 32 {
			b.Fatalf("Trim released %d pages, want 32", n)
		}
		blk, err := a.Alloc(c, size)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(c, blk, size)
	}
}

// BenchmarkSpanCycle times a one-page span going free and back under
// each backing policy: the split page an allocation took is freed to the
// vmblk layer and allocated again, landing on the same page. Under eager
// backing the free scrubs and unmaps the page and the allocation maps it,
// verifies the scrub and zero-fills it; a lazy span keeps its frame and
// commits nothing. It reports host ns and virtual cycles per page.
func BenchmarkSpanCycle(b *testing.B) {
	for _, lazy := range []bool{false, true} {
		name := "eager"
		if lazy {
			name = "lazy"
		}
		b.Run(name, func(b *testing.B) {
			m := machine.New(machine.DefaultConfig())
			a, err := New(m, Params{LazySpans: lazy})
			if err != nil {
				b.Fatal(err)
			}
			c := m.CPU(0)
			pg, err := a.vm.allocSplitPage(c, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			t0 := c.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.vm.freePages(c, pg, 1)
				again, err := a.vm.allocSplitPage(c, 0, 0)
				if err != nil || again != pg {
					b.Fatalf("page %d came back as %d, %v", pg, again, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/page")
			b.ReportMetric(float64(c.Now()-t0)/float64(b.N), "vcycles/page")
		})
	}
}

// BenchmarkPutBlocksScattered times the page layer's free path where it
// is dearest: 64 pages of 16-byte blocks returned in one putBlocks in
// golden-ratio-stride order, so consecutive blocks belong to different
// pages. It reports host ns and virtual cycles per block; the virtual
// figure is the one TestScatteredFreeCyclesPinned bounds.
func BenchmarkPutBlocksScattered(b *testing.B) {
	var cycles, blocks int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, pp, c, l := scatteredFree(b, Params{})
		blocks += int64(l.Len())
		b.StartTimer()
		t0 := c.Now()
		pp.putBlocks(c, l)
		cycles += c.Now() - t0
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(blocks), "ns/block")
	b.ReportMetric(float64(cycles)/float64(blocks), "vcycles/block")
}

// BenchmarkSpillReleasesPages times a spill whose every block empties a
// page: the last blocks of 8 pages of 16-byte blocks in one putBlocks,
// so the cost is the 8 releases — the pool's part under its lock, then
// each page's unmap and span insert after it. It reports host ns and
// virtual cycles per released page; the lock holds are what
// TestPageReleaseOutsideLocks bounds.
func BenchmarkSpillReleasesPages(b *testing.B) {
	const k = 8
	var cycles int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, pp, c, l := oneShort(b, Params{}, k)
		b.StartTimer()
		t0 := c.Now()
		pp.putBlocks(c, l)
		cycles += c.Now() - t0
	}
	pages := float64(b.N * k)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pages, "ns/page")
	b.ReportMetric(float64(cycles)/pages, "vcycles/page")
}

// BenchmarkSpillContended times BenchmarkPutBlocksScattered's spill on
// a two-CPU machine, uncontended and meeting the other CPU's hold on the
// pool's lock — where it resolves every block before taking the lock and
// applies them newest first. It reports virtual cycles under the pool's
// lock per block, the figure the pre-pass shortens, and host ns per
// block.
func BenchmarkSpillContended(b *testing.B) {
	for _, contended := range []bool{false, true} {
		name := "uncontended"
		if contended {
			name = "contended"
		}
		b.Run(name, func(b *testing.B) {
			var held, blocks int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, _, c := fresh16On(b, 2, Params{})
				pp, bs := drawPages(b, a, c, 16, 64)
				l := listOf(c, a, scattered(bs))
				if contended {
					holdAcross(a.m, pp.lk, 100000)
				}
				before := pp.lk.Stats().HoldCycles
				blocks += int64(l.Len())
				b.StartTimer()
				pp.putBlocks(c, l)
				held += pp.lk.Stats().HoldCycles - before
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(blocks), "ns/block")
			b.ReportMetric(float64(held)/float64(blocks), "vcycles-held/block")
		})
	}
}

// BenchmarkRefillCold times the page layer's refill where every block is
// fresh: one getLists of 64 whole pages of 16-byte blocks, each page
// carved straight into its list. It reports host ns and virtual cycles
// per block; the virtual figure is the one TestColdRefillCyclesPinned
// bounds.
func BenchmarkRefillCold(b *testing.B) {
	var cycles, blocks int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, pp, c := fresh16(b, Params{})
		b.StartTimer()
		t0 := c.Now()
		if _, err := pp.getLists(c, 64, pp.blocksPerPage); err != nil {
			b.Fatal(err)
		}
		cycles += c.Now() - t0
		blocks += int64(64 * pp.blocksPerPage)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(blocks), "ns/block")
	b.ReportMetric(float64(cycles)/float64(blocks), "vcycles/block")
}

// BenchmarkRefillStreak times streakFill, four CPUs filling one class
// from a cold start: after four contended carving refills the CPUs
// taking lists back the next refill's pages ahead. 16 bytes arms through
// refills that only draw, 128 bytes runs lists across a page boundary,
// and 512 bytes backs each list's two pages as one span. It reports the
// fill's virtual cycles (the last CPU's clock) per page carved, the
// global pool's lock hold per refill, and host ns per page.
func BenchmarkRefillStreak(b *testing.B) {
	for _, size := range []uint64{16, 128, 512} {
		b.Run(fmt.Sprint(size), func(b *testing.B) { benchRefillStreak(b, size) })
	}
}

func benchRefillStreak(b *testing.B, size uint64) {
	var cycles, held, pages, refills int64
	for i := 0; i < b.N; i++ {
		a, m, recs := streakFill(b, 4, size, 600)
		cls, _ := a.classOf(size)
		var end int64
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			end = max(end, m.CPU(cpu).Now())
		}
		cycles += end
		for _, r := range recs {
			held += r.hold
		}
		pages += int64(a.classes[cls].pages[0].ev[EvPageCarve])
		refills += int64(len(recs))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
	b.ReportMetric(float64(cycles)/float64(pages), "vcycles/page")
	b.ReportMetric(float64(held)/float64(refills), "vcycles-held/refill")
}

// BenchmarkCookiePair times the host cost of one warm AllocCookie/
// FreeCookie pair in Sim mode — the per-CPU layer end to end, both
// critical-section protocols — with the cache primed so that no
// iteration leaves the fast path.
func BenchmarkCookiePair(b *testing.B) {
	for _, proto := range []struct {
		name string
		rseq bool
	}{{"intr", false}, {"rseq", true}} {
		b.Run(proto.name, func(b *testing.B) {
			m := machine.New(machine.DefaultConfig())
			a, err := New(m, Params{Rseq: proto.rseq})
			if err != nil {
				b.Fatal(err)
			}
			c := m.CPU(0)
			ck, err := a.GetCookie(64)
			if err != nil {
				b.Fatal(err)
			}
			blk, err := a.AllocCookie(c, ck)
			if err != nil {
				b.Fatal(err)
			}
			a.FreeCookie(c, blk, ck)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk, err := a.AllocCookie(c, ck)
				if err != nil {
					b.Fatal(err)
				}
				a.FreeCookie(c, blk, ck)
			}
		})
	}
}

// BenchmarkNativeCookiePair times one warm AllocCookie/FreeCookie pair
// of 64-byte blocks on a Native machine — the real cost of the per-CPU
// hit as an ordinary Go library: two critical sections, a pop and a
// push. Native runs one section protocol whatever Params.Rseq selects
// for Sim, so there is one benchmark. Nothing leaves the fast path.
func BenchmarkNativeCookiePair(b *testing.B) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	m := machine.New(cfg)
	a, err := New(m, Params{})
	if err != nil {
		b.Fatal(err)
	}
	c := m.CPU(0)
	ck, err := a.GetCookie(64)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := a.AllocCookie(c, ck)
	if err != nil {
		b.Fatal(err)
	}
	a.FreeCookie(c, blk, ck)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := a.AllocCookie(c, ck)
		if err != nil {
			b.Fatal(err)
		}
		a.FreeCookie(c, blk, ck)
	}
}
