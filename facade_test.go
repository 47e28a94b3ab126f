package kmem

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"kmem/internal/core"
)

func TestFacadeZeroedAndDump(t *testing.T) {
	s, err := NewSystem(Config{CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := s.CPU(0)
	b, err := s.AllocZeroed(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Bytes(b, 100) {
		if v != 0 {
			t.Fatalf("byte %d = %#x", i, v)
		}
	}
	ck, _ := s.GetCookie(64)
	zb, err := s.AllocCookieZeroed(c, ck)
	if err != nil {
		t.Fatal(err)
	}
	s.FreeCookie(c, zb, ck)
	s.Free(c, b, 100)

	var sb strings.Builder
	s.Dump(&sb)
	if !strings.Contains(sb.String(), "kmem allocator:") {
		t.Fatal("dump missing header")
	}
}

func TestFacadeDrainCPU(t *testing.T) {
	s, err := NewSystem(Config{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	c0 := s.CPU(0)
	b, _ := s.Alloc(c0, 64)
	s.Free(c0, b, 64)
	st := s.Stats(c0)
	if st.Classes[2].HeldPerCPU == 0 {
		t.Fatal("nothing cached before drain")
	}
	s.DrainCPU(c0, 0)
	st = s.Stats(c0)
	if st.Classes[2].HeldPerCPU != 0 {
		t.Fatalf("cache survived drain: %d", st.Classes[2].HeldPerCPU)
	}
}

func TestFacadeClassIntrospection(t *testing.T) {
	s, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumClasses() != 9 {
		t.Fatalf("NumClasses = %d", s.NumClasses())
	}
	if s.ClassSize(0) != 16 || s.ClassSize(8) != 4096 {
		t.Fatalf("class sizes: %d..%d", s.ClassSize(0), s.ClassSize(8))
	}
	if s.Target(0) != 10 || s.Target(8) != 2 {
		t.Fatalf("targets: %d..%d (paper: 10 down to 2)", s.Target(0), s.Target(8))
	}
}

func TestFacadeBadConfig(t *testing.T) {
	for what, cfg := range map[string]Config{
		"bad class list":           {Classes: []uint32{7}},
		"more CPUs than supported": {CPUs: 100},
		"more nodes than CPUs":     {CPUs: 2, Nodes: 4},
		"memory not whole pages":   {MemBytes: 4097},
	} {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestFacadeHook(t *testing.T) {
	// The event spine surfaces through Config: a hooked System must
	// observe boundary events under the oscillating workload, and its
	// targets stay the paper's static ones.
	var events EventCounter
	s, err := NewSystem(Config{
		CPUs: 1,
		Hook: events.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := s.CPU(0)
	ck, err := s.GetCookie(128)
	if err != nil {
		t.Fatal(err)
	}
	cls := -1
	for i := 0; i < s.NumClasses(); i++ {
		if s.ClassSize(i) == 128 {
			cls = i
		}
	}
	before, gblBefore := s.Target(cls), s.GblTarget(cls)

	held := make([]Addr, 0, 400)
	for b := 0; b < 200; b++ {
		for i := 0; i < 400; i++ {
			blk, err := s.AllocCookie(c, ck)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, blk)
		}
		for _, blk := range held {
			s.FreeCookie(c, blk, ck)
		}
		held = held[:0]
	}

	if s.Target(cls) != before || s.GblTarget(cls) != gblBefore {
		t.Errorf("targets moved: %d/%d -> %d/%d", before, gblBefore, s.Target(cls), s.GblTarget(cls))
	}
	if s.GblTarget(cls) <= 0 {
		t.Errorf("GblTarget(%d) = %d", cls, s.GblTarget(cls))
	}
	st := s.Stats(c)
	if events.Count(EvCPURefill) == 0 || events.Count(EvGlobalGet) != st.Classes[cls].GlobalGets {
		t.Errorf("hook observed %d refills, %d global gets; stats count %d global gets",
			events.Count(EvCPURefill), events.Count(EvGlobalGet), st.Classes[cls].GlobalGets)
	}
}

func TestFacadeErrNoVADistinctFromErrNoMemory(t *testing.T) {
	// A 4 MB arena holds exactly one vmblk; with physical pages to spare,
	// repeated 2 MB allocations exhaust address space, not frames, and
	// the caller must be able to tell the two apart.
	s, err := NewSystem(Config{MemBytes: 4 << 20, PhysPages: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	c := s.CPU(0)
	var held []Addr
	for {
		b, err := s.Alloc(c, 2<<20)
		if err != nil {
			if !errors.Is(err, ErrNoVA) {
				t.Fatalf("VA exhaustion error = %v, want ErrNoVA", err)
			}
			if errors.Is(err, ErrNoMemory) {
				t.Fatal("ErrNoVA must not match ErrNoMemory")
			}
			break
		}
		held = append(held, b)
	}
	if len(held) != 1 {
		t.Fatalf("placed %d 2MB spans in a 4MB arena, want 1", len(held))
	}
	for _, b := range held {
		s.Free(c, b, 2<<20)
	}
}

func TestFacadePressureAndAllocWait(t *testing.T) {
	// The pressure model end to end through the public API: watermarks
	// from Config, Pressure() level, bounded AllocWait failure while
	// exhausted, success after a free, and the Stats.Pressure counters.
	s, err := NewSystem(Config{
		CPUs:      1,
		PhysPages: 20,
		Pressure:  &PressureConfig{LowPages: 8, MinPages: 6},
		Wait:      &WaitConfig{MaxWaits: 2, BaseBackoffCycles: 500, MaxBackoffCycles: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := s.CPU(0)
	var held []Addr
	for {
		b, err := s.Alloc(c, 4096)
		if err != nil {
			if !errors.Is(err, ErrNoMemory) {
				t.Fatalf("exhaustion error = %v, want ErrNoMemory", err)
			}
			break
		}
		held = append(held, b)
	}
	if s.Pressure() != PressureCritical {
		t.Fatalf("Pressure() at exhaustion = %v", s.Pressure())
	}
	if _, err := s.AllocWait(c, 4096); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("AllocWait on exhausted system = %v, want ErrNoMemory", err)
	}
	s.Free(c, held[len(held)-1], 4096)
	held = held[:len(held)-1]
	b, err := s.AllocWait(c, 4096)
	if err != nil {
		t.Fatalf("AllocWait after free: %v", err)
	}
	held = append(held, b)
	st := s.Stats(c)
	if st.Pressure.Waits == 0 || st.Pressure.Transitions == 0 {
		t.Fatalf("pressure stats not plumbed: %+v", st.Pressure)
	}
	for _, b := range held {
		s.Free(c, b, 4096)
	}
	s.DrainAll(c)
	if s.Pressure() != PressureOK {
		t.Fatalf("Pressure() after release = %v", s.Pressure())
	}
}

func TestFacadeFaultInjection(t *testing.T) {
	fs := NewFaultSet(7)
	fs.Arm(FaultPagePoolRefill, FaultSpec{})
	s, err := NewSystem(Config{CPUs: 1, Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	c := s.CPU(0)
	if _, err := s.Alloc(c, 64); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("Alloc under armed fault = %v, want ErrNoMemory", err)
	}
	fs.Disarm(FaultPagePoolRefill)
	b, err := s.Alloc(c, 64)
	if err != nil {
		t.Fatalf("Alloc after disarm: %v", err)
	}
	s.Free(c, b, 64)
	if st := s.Stats(c); st.Pressure.FaultsInjected == 0 {
		t.Fatal("fault injections not counted in stats")
	}
}

// TestEveryEventHasAnAlias: a Hook receives every core event, so the
// facade must name each one. The list is read from core's source, so an
// event added there without an alias here fails by name.
func TestEveryEventHasAnAlias(t *testing.T) {
	fset := token.NewFileSet()
	consts := func(path string) []*ast.ValueSpec {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out []*ast.ValueSpec
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
				for _, s := range g.Specs {
					out = append(out, s.(*ast.ValueSpec))
				}
			}
		}
		return out
	}
	aliased := map[string]bool{}
	for _, vs := range consts("kmem.go") {
		for i, v := range vs.Values {
			if sel, ok := v.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "core" && vs.Names[i].Name == sel.Sel.Name {
					aliased[sel.Sel.Name] = true
				}
			}
		}
	}
	var events, missing []string
	for _, vs := range consts("internal/core/events.go") {
		for _, n := range vs.Names {
			if strings.HasPrefix(n.Name, "Ev") {
				events = append(events, n.Name)
				if !aliased[n.Name] {
					missing = append(missing, n.Name)
				}
			}
		}
	}
	if len(events) < core.NumLayerEvents {
		t.Fatalf("read %d Ev* constants from core, want %d", len(events), core.NumLayerEvents)
	}
	if len(missing) > 0 {
		t.Errorf("kmem.go has no alias for %d core events: %s", len(missing), strings.Join(missing, ", "))
	}
}
