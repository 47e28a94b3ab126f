// Package bench is the experiment harness: it reconstructs every table
// and figure of the paper's evaluation on the simulated machine, and the
// ablations listed in DESIGN.md. cmd/kmembench and the repository's
// bench_test.go both drive it.
package bench

import (
	"fmt"

	"kmem/internal/allocif"
	"kmem/internal/core"
	"kmem/internal/lazybuddy"
	"kmem/internal/machine"
	"kmem/internal/mk"
	"kmem/internal/oldkma"
)

// AllocatorNames lists the four allocators of Figures 7 and 8, top trace
// first.
var AllocatorNames = []string{"cookie", "newkma", "mk", "oldkma"}

// MachineFor returns the simulated-machine configuration used by the
// experiments, overriding CPU count and memory shape.
func MachineFor(ncpu int, memBytes uint64, physPages int64) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.MemBytes = memBytes
	cfg.PhysPages = physPages
	return cfg
}

// BuildAllocator constructs the named allocator on machine m.
func BuildAllocator(m *machine.Machine, name string) (allocif.Allocator, error) {
	switch name {
	case "cookie", "newkma": // the paper's allocator behind either of its interfaces
		a, err := core.New(m, core.Params{})
		if err != nil {
			return nil, err
		}
		if name == "cookie" {
			return allocif.NewCookieKMA(a), nil
		}
		return allocif.NewKMA{Allocator: a}, nil
	case "mk":
		return mk.New(m)
	case "oldkma":
		return oldkma.New(m)
	case "lazybuddy":
		return lazybuddy.New(m)
	}
	return nil, fmt.Errorf("bench: unknown allocator %q", name)
}
