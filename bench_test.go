// Benchmarks regenerating every table and figure of the paper's
// evaluation as testing.B benchmarks (the experiment index is
// bench.Sweeps in internal/bench/sweeps.go, which `kmembench` runs;
// EXPERIMENTS.md has the measured-vs-paper comparison):
//
//	BenchmarkFig7BestCase  — Figure 7, alloc/free pairs/s vs CPUs
//	BenchmarkFig8BestCaseLog — Figure 8, the same data on a semilog axis
//	BenchmarkFig9WorstCase — Figure 9, worst-case pairs/s vs block size
//	BenchmarkTable1Insns   — instruction counts (cookie 13/13, std 35/32)
//	BenchmarkDLMMissRates  — DLM per-layer miss rates
//	BenchmarkAnalysisAllocb — Analysis §, allocb/freeb over the old allocator
//	BenchmarkAblate*       — the DESIGN.md ablations (A1–A4)
//
// The simulator is deterministic, so every reported virtual metric is
// identical across runs; the wall-clock ns/op measures only how fast the
// host executes the simulation.
package kmem

import (
	"fmt"
	"runtime"
	"testing"

	"kmem/internal/bench"
)

// benchCPUCounts is the Figure 7/8 x-axis (the paper measured 1..25 of
// the machine's 26 CPUs, one being reserved for the test coordinator).
var benchCPUCounts = []int{1, 2, 4, 8, 16, 25}

func BenchmarkFig7BestCase(b *testing.B) {
	for _, name := range bench.AllocatorNames {
		for _, ncpu := range benchCPUCounts {
			b.Run(fmt.Sprintf("alloc=%s/cpus=%d", name, ncpu), func(b *testing.B) {
				var pairs float64
				for i := 0; i < b.N; i++ {
					res, err := bench.RunBestCase([]string{name}, []int{ncpu}, 128, 0.01)
					if err != nil {
						b.Fatal(err)
					}
					pairs = res.Points[name][0].PairsPerSec
				}
				b.ReportMetric(pairs, "vpairs/s")
				b.ReportMetric(pairs/float64(ncpu), "vpairs/s/cpu")
			})
		}
	}
}

func BenchmarkFig8BestCaseLog(b *testing.B) {
	// Figure 8 is Figure 7's data on a semilog axis; the interesting
	// derived quantities are the ratios the paper quotes.
	var r1, r25 float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunBestCase([]string{"cookie", "oldkma"}, []int{1, 25}, 128, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		r1, _ = res.Ratio("cookie", "oldkma", 0)
		r25, _ = res.Ratio("cookie", "oldkma", 1)
	}
	b.ReportMetric(r1, "x-cookie/oldkma@1cpu")   // paper: 15
	b.ReportMetric(r25, "x-cookie/oldkma@25cpu") // paper: >1000
}

func BenchmarkFig9WorstCase(b *testing.B) {
	sizes := []uint64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	for _, size := range sizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			var point bench.WorstCasePoint
			for i := 0; i < b.N; i++ {
				res, err := bench.RunWorstCase([]uint64{size}, 512)
				if err != nil {
					b.Fatal(err)
				}
				point = res.Points[0]
			}
			b.ReportMetric(point.PairsPerSec, "vpairs/s")
			b.ReportMetric(point.AllocPerSec, "vallocs/s")
			b.ReportMetric(point.FreePerSec, "vfrees/s")
			b.ReportMetric(float64(point.Blocks), "blocks")
		})
	}
}

func BenchmarkTable1Insns(b *testing.B) {
	var rows []bench.InsnRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunInsnCounts()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.AllocInsns), "insns-alloc-"+shortName(r.Interface))
		b.ReportMetric(float64(r.FreeInsns), "insns-free-"+shortName(r.Interface))
	}
}

func shortName(iface string) string {
	switch {
	case len(iface) >= 6 && iface[:6] == "cookie":
		return "cookie"
	case len(iface) >= 8 && iface[:8] == "standard":
		return "std"
	case len(iface) >= 2 && iface[:2] == "Mc":
		return "mk"
	default:
		return "oldkma"
	}
}

func BenchmarkDLMMissRates(b *testing.B) {
	cfg := bench.DefaultDLMConfig()
	cfg.OpsPerNode = 4000
	var res *bench.DLMResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunDLM(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		pct := func(x float64) float64 { return x * 100 }
		b.ReportMetric(pct(row.AllocMiss), fmt.Sprintf("percpu-miss%%-%d", row.Size))
		b.ReportMetric(pct(row.GlobalGetMiss), fmt.Sprintf("global-miss%%-%d", row.Size))
		b.ReportMetric(pct(row.CombinedAllocMiss), fmt.Sprintf("combined-miss%%-%d", row.Size))
	}
}

func BenchmarkAnalysisAllocb(b *testing.B) {
	var old, new_ []bench.AnalysisResult
	for i := 0; i < b.N; i++ {
		var err error
		old, new_, err = bench.RunAnalysis(64)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(old[0].PredictedUs, "old-allocb-predicted-us") // paper: 12.5
	b.ReportMetric(old[0].AvgUs, "old-allocb-avg-us")             // paper: 64.2
	b.ReportMetric(old[0].WorstSharePct, "old-worst6.3%-share")   // paper: 57.6
	b.ReportMetric(new_[0].AvgUs, "new-allocb-avg-us")
}

func BenchmarkAblateTarget(b *testing.B) {
	var rows []bench.TargetRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.AblateTarget([]int{1, 2, 5, 10, 20}, 0.01)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.GlobalAccess), fmt.Sprintf("globalops-t%d", r.Target))
	}
}

func BenchmarkAblateSplitFreelist(b *testing.B) {
	var rows []bench.SplitRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.AblateSplitFreelist(0.01)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].GlobalOps), "globalops-split")
	b.ReportMetric(float64(rows[1].GlobalOps), "globalops-single")
}

func BenchmarkAblateRadix(b *testing.B) {
	var rows []bench.RadixRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.AblateRadix(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].PagesReleased), "pagesfreed-radix")
	b.ReportMetric(float64(rows[1].PagesReleased), "pagesfreed-fifo")
}

func BenchmarkLazyBuddy(b *testing.B) {
	var rows []bench.LazyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.AblateLazyBuddy(0.01)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PairsPerSec, fmt.Sprintf("vpairs/s-%s-%dcpu", r.Allocator, r.CPUs))
	}
}

// BenchmarkGoHeapAllocFree is the host-Go-allocator baseline for
// BenchmarkNativeAllocFree: the same alloc/free pattern through Go's
// runtime allocator (kept honest with KeepAlive against dead-code
// elimination; the GC inevitably participates).
func BenchmarkGoHeapAllocFree(b *testing.B) {
	var sink []byte
	for i := 0; i < b.N; i++ {
		sink = make([]byte, 128)
		sink[0] = byte(i)
	}
	runtime.KeepAlive(sink)
}

// BenchmarkNativeAllocFree measures the allocator as an ordinary Go
// library (no simulation): the real cost of the sharded fast path on the
// host machine.
func BenchmarkNativeAllocFree(b *testing.B) {
	s, err := NewSystem(Config{Mode: Native, CPUs: 1, PhysPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	c := s.CPU(0)
	ck, err := s.GetCookie(128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := s.AllocCookie(c, ck)
		if err != nil {
			b.Fatal(err)
		}
		s.FreeCookie(c, blk, ck)
	}
}
