package torture

// The config matrix: topology (CPUs × nodes) × pressure × faultpoints ×
// adaptive × lazy spans × object caches × hardening × optimistic
// fast paths (rseq + lock-free global layer) × serving traces. The small
// matrix is the PR-smoke set — every dimension exercised at least once
// on a multi-node topology, plus one planted corruption per kind, cheap
// enough for every push. The full matrix is the nightly set: a pairwise
// covering array over the same nine factors plus the small matrix's
// directed stacks, small enough that the nightly budget goes to jitter
// seeds rather than to configs.

// MatrixSmall returns the PR-smoke configs. Seeds and op counts are the
// caller's to fill (tests pin them; kmemtorture sweeps them).
func MatrixSmall() []Config {
	return []Config{
		{CPUs: 1, Nodes: 1},
		{CPUs: 2, Nodes: 1},
		{CPUs: 4, Nodes: 2},
		{CPUs: 8, Nodes: 4},
		{CPUs: 4, Nodes: 2, Pressure: true},
		{CPUs: 4, Nodes: 2, Faults: true},
		{CPUs: 4, Nodes: 2, Adaptive: true},
		{CPUs: 4, Nodes: 2, Lazy: true},
		{CPUs: 4, Nodes: 2, Lazy: true, Pressure: true, Faults: true},
		{CPUs: 8, Nodes: 4, Pressure: true, Faults: true, Adaptive: true},
		{CPUs: 8, Nodes: 4, Lazy: true, Pressure: true, Faults: true, Adaptive: true},
		{CPUs: 4, Nodes: 2, ObjCache: true},
		{CPUs: 4, Nodes: 2, ObjCache: true, Pressure: true},
		{CPUs: 8, Nodes: 4, ObjCache: true, Lazy: true, Pressure: true, Faults: true},
		// Hardening with panic policy: a clean workload must produce zero
		// detections across topologies, pressure, lazy spans and caches.
		{CPUs: 4, Nodes: 2, Harden: true},
		{CPUs: 4, Nodes: 2, Harden: true, Pressure: true},
		{CPUs: 8, Nodes: 4, Harden: true, Lazy: true, ObjCache: true},
		// Optimistic fast paths: restartable sequences (with the
		// restart-storm adversary aborting them at every other
		// opportunity) and the CAS-based lock-free global layer, alone
		// and stacked with pressure and caches.
		{CPUs: 4, Nodes: 2, Rseq: true},
		{CPUs: 4, Nodes: 2, Rseq: true, RestartStorm: true, ObjCache: true},
		{CPUs: 8, Nodes: 4, LockFree: true},
		{CPUs: 8, Nodes: 4, Rseq: true, LockFree: true, RestartStorm: true, Pressure: true},
		// Serving traces: session open/churn/close lifetimes instead of
		// uniform random ops, so skewed lifetimes concentrate cross-CPU
		// frees on the shard and magazine-overflow paths.
		{CPUs: 4, Nodes: 2, Serve: true},
		{CPUs: 8, Nodes: 4, Serve: true, ObjCache: true, Pressure: true},
		// Planted corruptions: each kind must be detected, attributed to
		// the plant's site tags, and contained in quarantine.
		{CPUs: 4, Nodes: 2, Harden: true, Plant: "overrun"},
		{CPUs: 4, Nodes: 2, Harden: true, Plant: "doublefree"},
		{CPUs: 4, Nodes: 2, Harden: true, Plant: "latewrite"},
		{CPUs: 4, Nodes: 2, Harden: true, ObjCache: true, Plant: "latewrite"},
	}
}

// matrixTopos is the topology factor's levels.
var matrixTopos = [...]struct{ cpus, nodes int }{{1, 1}, {2, 1}, {4, 2}, {8, 4}}

// matrixRow is one point of the nine-factor space, a level per factor:
// [0] indexes matrixTopos, [1..8] are the on/off factors (0 or 1) in the
// order config reads them.
type matrixRow [9]int

func (r matrixRow) config() Config {
	tp := matrixTopos[r[0]]
	on := func(f int) bool { return r[f] == 1 }
	return Config{
		CPUs: tp.cpus, Nodes: tp.nodes,
		Pressure: on(1), Faults: on(2), Adaptive: on(3),
		Lazy: on(4), ObjCache: on(5), Harden: on(6),
		// The optimistic factor flips both fast paths together; each
		// alone, and the restart storm, are directed configs.
		Rseq: on(7), LockFree: on(7),
		Serve: on(8),
	}
}

// matrixPair names one (factor = level, factor = level) combination.
type matrixPair struct{ f, lf, g, lg int }

func (r matrixRow) pairs(visit func(matrixPair)) {
	for f := range r {
		for g := f + 1; g < len(r); g++ {
			visit(matrixPair{f, r[f], g, r[g]})
		}
	}
}

// coveringRows builds a strength-2 covering array greedily: from the
// cross product in enumeration order, repeatedly take the row covering
// the most still-uncovered pairs (first wins ties) until every pair is
// covered. Deterministic, so config k of the nightly matrix is the same
// config every night.
func coveringRows() []matrixRow {
	var all []matrixRow
	for topo := range matrixTopos {
		for bits := 0; bits < 1<<8; bits++ {
			r := matrixRow{topo}
			for f := 1; f < len(r); f++ {
				r[f] = bits >> (f - 1) & 1
			}
			all = append(all, r)
		}
	}
	uncovered := map[matrixPair]bool{}
	for _, r := range all {
		r.pairs(func(p matrixPair) { uncovered[p] = true })
	}
	var out []matrixRow
	for len(uncovered) > 0 {
		best, bestNew := 0, 0
		for i, r := range all {
			n := 0
			r.pairs(func(p matrixPair) {
				if uncovered[p] {
					n++
				}
			})
			if n > bestNew {
				best, bestNew = i, n
			}
		}
		out = append(out, all[best])
		all[best].pairs(func(p matrixPair) { delete(uncovered, p) })
	}
	return out
}

// MatrixFull returns the nightly configs: the pairwise covering array —
// every combination of two factor values runs together in some config —
// followed by the small matrix's directed stacks, which pile up more
// than two features on purpose (the restart storms, the planted
// corruptions, serving traces over caches under pressure).
func MatrixFull() []Config {
	var out []Config
	for _, r := range coveringRows() {
		out = append(out, r.config())
	}
	for _, c := range MatrixSmall() {
		if c.RestartStorm || c.Plant != "" || (c.Serve && c.ObjCache && c.Pressure) {
			out = append(out, c)
		}
	}
	return out
}
