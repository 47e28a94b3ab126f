//go:build !linux || race

package arena

// newArena backs an arena with a heap slice. The race detector sees only
// Go-heap memory, so race builds keep the arena there, and so do builds
// for systems without the demand-zero mapping of host_mmap.go.
func newArena(size uint64) *Arena { return &Arena{mem: make([]byte, size)} }
