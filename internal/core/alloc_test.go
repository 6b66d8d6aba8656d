package core

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hamming"
	"repro/internal/rng"
)

// Steady-state allocation ceilings of the schemes over the fixtures of
// BenchmarkQueryAlgo1K2 and BenchmarkQueryAlgo2K8, exact and
// machine-independent. On a held execution context — how every serving
// layer runs them — a warm query allocates nothing; the pooled
// Scheme.Query pays exactly one allocation, the Stats.Clone that detaches
// ProbesPerRound from the context it returns to the pool.
// Run explicitly: GOFLAGS=-count=1 go test -run TestAllocs ./internal/core.
func testSchemeAllocs(t *testing.T, k int, scheme func(*Index) CtxScheme) {
	if raceEnabled {
		t.Skip("allocation ceilings are measured without -race instrumentation")
	}
	idx, db := benchIndex(t, 1024, 250, k)
	r := rng.New(904)
	queries := make([]bitvec.Vector, 32)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, db[i], 1024, 40)
	}
	a, c := scheme(idx), NewQueryCtx()
	for _, tc := range []struct {
		path    string
		ceiling float64
		query   func(x bitvec.Vector)
	}{
		{"QueryWithCtx", 0, func(x bitvec.Vector) { a.QueryWithCtx(x, c) }},
		{"Query", 1, func(x bitvec.Vector) { a.Query(x) }},
	} {
		for _, q := range queries { // warm the lazy cells, sketches and context scratch
			tc.query(q)
		}
		i := 0
		got := testing.AllocsPerRun(100, func() {
			tc.query(queries[i%len(queries)])
			i++
		})
		if got > tc.ceiling {
			t.Errorf("%s.%s allocates %v/op at steady state, ceiling %v", a.Name(), tc.path, got, tc.ceiling)
		}
	}
}

func TestAllocsAlgo1K2(t *testing.T) {
	testSchemeAllocs(t, 2, func(idx *Index) CtxScheme { return NewAlgo1(idx, 2) })
}

func TestAllocsAlgo2K8(t *testing.T) {
	testSchemeAllocs(t, 8, func(idx *Index) CtxScheme { return NewAlgo2(idx, 8) })
}
