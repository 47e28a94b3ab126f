package workload

// Xorshift is the xorshift64* generator: tiny, seeded, and stable across
// Go versions. The torture corpus, the serving-trace generator and the
// simulator's schedule jitter draw from it, and committed repros, traces
// and schedule hashes replay against its frozen constants.
type Xorshift struct{ state uint64 }

// NewXorshift returns the stream seed names. Zero, the generator's fixed
// point, names a fixed default stream.
func NewXorshift(seed uint64) *Xorshift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Xorshift{state: seed}
}

// Next steps the generator.
func (r *Xorshift) Next() uint64 {
	x := r.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n).
func (r *Xorshift) Intn(n int) int { return int(r.Next() % uint64(n)) }
