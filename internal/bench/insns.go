package bench

import (
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

	for _, r := range []struct {
		iface, paperAlloc, paperFree string
		measure                      func() (uint64, uint64, error)
	}{
		{"cookie (KMEM_ALLOC_COOKIE/KMEM_FREE_COOKIE)", "13", "13", func() (uint64, uint64, error) { return measureCore(true) }},
		{"standard (kmem_alloc/kmem_free)", "35", "32", func() (uint64, uint64, error) { return measureCore(false) }},
		{"McKusick-Karels + global lock", "16 (VAX)", "16 (VAX)", func() (uint64, uint64, error) { return measureBaseline("mk") }},
		{"oldkma (fast fits + global lock)", "-", "-", func() (uint64, uint64, error) { return measureBaseline("oldkma") }},
	} {
		ai, fi, err := r.measure()
		if err != nil {
			return nil, err
		}
		rows = append(rows, InsnRow{
			Interface:  r.iface,
			AllocInsns: ai, FreeInsns: fi,
			PaperAlloc: r.paperAlloc, PaperFree: r.paperFree,
		})
	}
	return rows, nil
}

// InsnTable renders the instruction-count comparison.
func InsnTable(rows []InsnRow) *Table {
	t := &Table{
		Title:   "Instruction counts, warmed common path (simulated 80x86 instructions)",
		Headers: []string{"interface", "alloc", "paper", "free", "paper"},
	}
	for _, r := range rows {
		t.AddRowf("%s|%d|%s|%d|%s",
			r.Interface, r.AllocInsns, r.PaperAlloc, r.FreeInsns, r.PaperFree)
	}
	return t
}
