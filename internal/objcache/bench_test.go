package objcache_test

import (
	"testing"

	"kmem/internal/objcache"
)

// BenchmarkGetPut times the host cost of one warm Get/Put pair in Sim
// mode — the magazine fast path under both critical-section protocols —
// with the loaded magazine primed so that no iteration reaches the
// depot. CI runs it with -benchtime 1x so it keeps compiling.
func BenchmarkGetPut(b *testing.B) {
	for _, proto := range []struct {
		name string
		rseq bool
	}{{"intr", false}, {"rseq", true}} {
		b.Run(proto.name, func(b *testing.B) {
			m, _, kma := newKMA(b, 1)
			k, err := objcache.New(m, kma, "bench:getput", 64, 8, nil, nil, objcache.Opts{Rseq: proto.rseq})
			if err != nil {
				b.Fatal(err)
			}
			c := m.CPU(0)
			obj, err := k.Get(c)
			if err != nil {
				b.Fatal(err)
			}
			k.Put(c, obj)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj, err := k.Get(c)
				if err != nil {
					b.Fatal(err)
				}
				k.Put(c, obj)
			}
		})
	}
}
