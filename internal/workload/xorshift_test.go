package workload

import "testing"

// TestXorshiftPinned pins the generator's first outputs: the torture
// corpus, the serving traces and every jittered schedule replay against
// this stream, so it must never change. Seed 0 names the default stream.
func TestXorshiftPinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want [3]uint64
	}{
		{0, [3]uint64{0x7403d1a28c9a2599, 0xdd70f339ab8ecb5e, 0x7d974833520ea11e}},
		{1, [3]uint64{0xbafacf624f01c45d, 0x2da6891e507685d, 0xfe17a361146fb7a5}},
		{0xdeadbeef, [3]uint64{0x8aa92eef0ea8594a, 0xe56b8f259251f4b6, 0xe151bf2945c4ac7d}},
	} {
		r := NewXorshift(tc.seed)
		for i, want := range tc.want {
			if got := r.Next(); got != want {
				t.Errorf("seed %#x: output %d is %#x, want %#x", tc.seed, i, got, want)
			}
		}
	}
}
