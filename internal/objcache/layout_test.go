package objcache

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"kmem/internal/core"
	"kmem/internal/machine"
)

// TestCPUMagsLayout: adjacent CPUs' magazine pairs never have live words
// on one host line, wherever a []cpuMags lands — first from the struct's
// geometry (every base address its alignment allows), then on the
// addresses of real caches, Sim and Native, two CPUs to eight.
func TestCPUMagsLayout(t *testing.T) {
	const line = machine.HostLineBytes
	var live uintptr
	typ := reflect.TypeOf(cpuMags{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "_" {
			live = max(live, f.Offset+f.Type.Size())
		}
	}
	size, align := typ.Size(), uintptr(typ.Align())
	for base := uintptr(0); base < line; base += align {
		if (base+live-1)/line >= (base+size)/line {
			t.Errorf("base %%%d = %d: element 0's last live byte and element 1's first share a line (size %d, live %d)", line, base, size, live)
		}
	}
	for _, mode := range []machine.Mode{machine.Sim, machine.Native} {
		for n := 2; n <= 8; n++ {
			cfg := machine.DefaultConfig()
			cfg.Mode = mode
			cfg.NumCPUs = n
			m := machine.New(cfg)
			a, err := core.New(m, core.Params{})
			if err != nil {
				t.Fatal(err)
			}
			k, err := New(m, a, fmt.Sprintf("layout:%d", n), 64, 8, nil, nil, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i+1 < n; i++ {
				end := uintptr(unsafe.Pointer(&k.mags[i])) + live - 1
				next := uintptr(unsafe.Pointer(&k.mags[i+1]))
				if end/line >= next/line {
					t.Errorf("mode %v, %d CPUs: CPUs %d and %d's magazines share a line (%#x, %#x)", mode, n, i, i+1, end, next)
				}
			}
		}
	}
}
