package bench

import (
	"errors"
	"fmt"
	"math"

	"kmem/internal/allocif"
	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
)

// WorstCasePoint is one block size's worst-case measurement.
type WorstCasePoint struct {
	BlockSize   uint64
	Blocks      uint64  // blocks allocated before exhaustion
	AllocPerSec float64 // allocations per second during the fill
	FreePerSec  float64 // frees per second during the drain
	PairsPerSec float64 // combined score, as plotted in Figure 9
}

// WorstCaseResult holds the Figure 9 sweep.
type WorstCaseResult struct {
	Points []WorstCasePoint
}

// RunWorstCase reproduces the paper's worst-case benchmark: "allocating
// blocks of a given size until memory is exhausted, freeing them all,
// then repeating the process with the next-larger size" — all on one
// system with no reboot and no sleep between sizes, which only works
// because the allocator coalesces online. An allocator that cannot
// coalesce fails partway (see mk's conformance tests).
func RunWorstCase(sizes []uint64, physPages int64) (*WorstCaseResult, error) {
	return RunWorstCaseCfg(sizes, physPages, nil)
}

// RunWorstCaseCfg is RunWorstCase with a machine-configuration hook.
func RunWorstCaseCfg(sizes []uint64, physPages int64, mutate func(*machine.Config)) (*WorstCaseResult, error) {
	cfg := MachineFor(1, 256<<20, physPages)
	if mutate != nil {
		mutate(&cfg)
	}
	m := machine.New(cfg)
	al, err := core.New(m, core.Params{})
	if err != nil {
		return nil, err
	}
	a := allocif.NewKMA{Allocator: al}
	c := m.CPU(0)

	res := &WorstCaseResult{}
	// The kernel list head that syscall_kma chains blocks on: we chain
	// them through their own first words, as the benchmark system calls
	// did.
	for _, size := range sizes {
		var head arena.Addr
		var count uint64
		startFill := c.Now()
		for {
			b, err := a.Alloc(c, size)
			if err != nil {
				if !errors.Is(err, core.ErrNoMemory) {
					return nil, fmt.Errorf("size %d: %w", size, err)
				}
				break
			}
			m.Mem().Store64(b, head)
			c.WriteAddr(b)
			head = b
			count++
		}
		endFill := c.Now()
		if count == 0 {
			return nil, fmt.Errorf("size %d: nothing allocated", size)
		}
		for head != arena.NilAddr {
			next := m.Mem().Load64(head)
			c.ReadAddr(head)
			a.Free(c, head, size)
			head = next
		}
		endDrain := c.Now()

		fillSec := m.CyclesToSeconds(endFill - startFill)
		drainSec := m.CyclesToSeconds(endDrain - endFill)
		res.Points = append(res.Points, WorstCasePoint{
			BlockSize:   size,
			Blocks:      count,
			AllocPerSec: float64(count) / fillSec,
			FreePerSec:  float64(count) / drainSec,
			PairsPerSec: float64(count) / (fillSec + drainSec),
		})
	}
	return res, nil
}

// WorstCaseAnyRow reports one size's outcome for an arbitrary allocator.
type WorstCaseAnyRow struct {
	BlockSize uint64
	Blocks    uint64
	Completed bool // allocated a meaningful share of memory at this size
}

// RunWorstCaseAny runs the worst-case script against any allocator,
// reporting per-size outcomes instead of assuming success. The paper:
// "an allocator that does no coalescing would fail to complete this
// benchmark, having permanently fragmented all available memory into the
// smallest possible blocks" — run with name "mk" to watch exactly that.
func RunWorstCaseAny(name string, sizes []uint64, physPages int64) ([]WorstCaseAnyRow, error) {
	m := machine.New(MachineFor(1, 256<<20, physPages))
	a, err := BuildAllocator(m, name)
	if err != nil {
		return nil, err
	}
	c := m.CPU(0)
	var rows []WorstCaseAnyRow
	for _, size := range sizes {
		var held []arena.Addr
		for {
			b, err := a.Alloc(c, size)
			if err != nil {
				break
			}
			held = append(held, b)
		}
		for _, b := range held {
			a.Free(c, b, size)
		}
		if d, ok := a.(allocif.Coalescer); ok {
			d.DrainAll(c)
		}
		// "Completed" means this size could use at least a quarter of
		// physical memory; a wedged allocator gets (almost) nothing.
		bytesGot := uint64(len(held)) * size
		quarter := uint64(physPages) * m.Config().PageBytes / 4
		rows = append(rows, WorstCaseAnyRow{
			BlockSize: size,
			Blocks:    uint64(len(held)),
			Completed: bytesGot >= quarter,
		})
	}
	return rows, nil
}

// WorstCaseAnyTable renders the per-size outcomes.
func WorstCaseAnyTable(name string, rows []WorstCaseAnyRow) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Worst-case script on %q (paper: a non-coalescing allocator fails to complete)", name),
		Headers: []string{"block size", "blocks allocated", "status"},
	}
	for _, r := range rows {
		status := "ok"
		if !r.Completed {
			status = "WEDGED (memory fragmented by a previous size)"
		}
		t.AddRowf("%d|%d|%s", r.BlockSize, r.Blocks, status)
	}
	return t
}

// Figure renders the sweep as the paper's Figure 9 (block size on the
// x-axis, log scale to cover 16..16384).
func (r *WorstCaseResult) Figure() *Figure {
	f := &Figure{
		Title:  "Figure 9: Worst-Case Performance",
		XLabel: "Block Size (log10 bytes)",
		YLabel: "alloc/free pairs per second",
	}
	var alloc, free, pairs Series
	alloc.Name, free.Name, pairs.Name = "allocs/sec", "frees/sec", "pairs/sec"
	for _, p := range r.Points {
		f.Xs = append(f.Xs, math.Log10(float64(p.BlockSize)))
		alloc.Ys = append(alloc.Ys, p.AllocPerSec)
		free.Ys = append(free.Ys, p.FreePerSec)
		pairs.Ys = append(pairs.Ys, p.PairsPerSec)
	}
	f.Series = []Series{pairs, alloc, free}
	return f
}
