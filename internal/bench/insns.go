package bench

import (
	"fmt"

	"kmem/internal/core"
	"kmem/internal/machine"
)

// InsnRow is one interface's measured instruction counts on the warmed
// common path.
type InsnRow struct {
	Interface  string
	AllocInsns uint64
	FreeInsns  uint64
	PaperAlloc string // the paper's reported figure, for the table
	PaperFree  string
}

// RunInsnCounts reproduces the paper's Instruction Counts discussion:
// "The efficient 'cookie' version of the allocator executes thirteen
// 80x86 instructions each for the allocation and free operations... The
// less efficient but standard interface executes 35 instructions for
// allocation and 32 instructions for freeing." Counts are measured by
// running one warmed operation under the simulator and reading the
// instruction counter delta.
func RunInsnCounts() ([]InsnRow, error) {
	var rows []InsnRow

	measureCore := func(cookie bool) (uint64, uint64, error) {
		m := machine.New(MachineFor(1, 16<<20, 1024))
		al, err := core.New(m, core.Params{})
		if err != nil {
			return 0, 0, err
		}
		c := m.CPU(0)
		ck, err := al.GetCookie(128)
		if err != nil {
			return 0, 0, err
		}
		// Warm: fill the per-CPU cache so the measured op stays on the
		// 13-instruction path.
		b, err := al.AllocCookie(c, ck)
		if err != nil {
			return 0, 0, err
		}
		al.FreeCookie(c, b, ck)
		b, _ = al.AllocCookie(c, ck)
		al.FreeCookie(c, b, ck)

		before := c.Stats().Instructions
		if cookie {
			b, _ = al.AllocCookie(c, ck)
		} else {
			b, _ = al.Alloc(c, 128)
		}
		mid := c.Stats().Instructions
		if cookie {
			al.FreeCookie(c, b, ck)
		} else {
			al.Free(c, b, 128)
		}
		after := c.Stats().Instructions
		return mid - before, after - mid, nil
	}

	ai, fi, err := measureCore(true)
	if err != nil {
		return nil, err
	}
	rows = append(rows, InsnRow{
		Interface:  "cookie (KMEM_ALLOC_COOKIE/KMEM_FREE_COOKIE)",
		AllocInsns: ai, FreeInsns: fi,
		PaperAlloc: "13", PaperFree: "13",
	})

	ai, fi, err = measureCore(false)
	if err != nil {
		return nil, err
	}
	rows = append(rows, InsnRow{
		Interface:  "standard (kmem_alloc/kmem_free)",
		AllocInsns: ai, FreeInsns: fi,
		PaperAlloc: "35", PaperFree: "32",
	})

	measureBaseline := func(name string) (uint64, uint64, error) {
		m := machine.New(MachineFor(1, 16<<20, 1024))
		a, err := BuildAllocator(m, name)
		if err != nil {
			return 0, 0, err
		}
		c := m.CPU(0)
		b, err := a.Alloc(c, 128)
		if err != nil {
			return 0, 0, err
		}
		a.Free(c, b, 128)
		before := c.Stats().Instructions
		b, _ = a.Alloc(c, 128)
		mid := c.Stats().Instructions
		a.Free(c, b, 128)
		after := c.Stats().Instructions
		return mid - before, after - mid, nil
	}

	ai, fi, err = measureBaseline("mk")
	if err != nil {
		return nil, err
	}
	rows = append(rows, InsnRow{
		Interface:  "McKusick-Karels + global lock",
		AllocInsns: ai, FreeInsns: fi,
		PaperAlloc: "16 (VAX)", PaperFree: "16 (VAX)",
	})

	ai, fi, err = measureBaseline("oldkma")
	if err != nil {
		return nil, err
	}
	rows = append(rows, InsnRow{
		Interface:  "oldkma (fast fits + global lock)",
		AllocInsns: ai, FreeInsns: fi,
		PaperAlloc: "-", PaperFree: "-",
	})
	return rows, nil
}

// InsnTable renders the instruction-count comparison.
func InsnTable(rows []InsnRow) *Table {
	t := &Table{
		Title:   "Instruction counts, warmed common path (simulated 80x86 instructions)",
		Headers: []string{"interface", "alloc", "paper", "free", "paper"},
	}
	for _, r := range rows {
		t.AddRow(r.Interface,
			fmt.Sprintf("%d", r.AllocInsns), r.PaperAlloc,
			fmt.Sprintf("%d", r.FreeInsns), r.PaperFree)
	}
	return t
}
