package core

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hamming"
	"repro/internal/rng"
)

func benchIndex(b testing.TB, d, n int, k int) (*Index, []bitvec.Vector) {
	b.Helper()
	r := rng.New(777)
	db := make([]bitvec.Vector, n)
	for i := range db {
		db[i] = hamming.Random(r, d)
	}
	return BuildIndex(db, d, Params{Gamma: 2, K: k, Seed: 778}), db
}

// BenchmarkAlgo1ByK sweeps the round budget: the per-op time tracks the
// probe count's k(log d)^{1/k} shape (each probe is one lazy cell eval on
// first touch, then a memo hit).
func BenchmarkAlgo1ByK(b *testing.B) {
	idx, db := benchIndex(b, 1024, 250, 4)
	r := rng.New(900)
	queries := make([]bitvec.Vector, 32)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, db[i], 1024, 40)
	}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			a := NewAlgo1(idx, k)
			a.Query(queries[0]) // warm lazy sketches
			b.ReportAllocs()
			b.ResetTimer()
			probes := 0
			for i := 0; i < b.N; i++ {
				probes += a.Query(queries[i%len(queries)]).Stats.Probes
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/query")
		})
	}
}

func BenchmarkAlgo2Query(b *testing.B) {
	idx, db := benchIndex(b, 1024, 250, 10)
	r := rng.New(901)
	queries := make([]bitvec.Vector, 32)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, db[i], 1024, 40)
	}
	a := NewAlgo2(idx, 10)
	a.Query(queries[0])
	b.ReportAllocs()
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		probes += a.Query(queries[i%len(queries)]).Stats.Probes
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/query")
}

func BenchmarkLambdaQuery(b *testing.B) {
	idx, db := benchIndex(b, 1024, 250, 2)
	r := rng.New(902)
	queries := make([]bitvec.Vector, 32)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, db[i], 1024, 8)
	}
	s := NewLambda(idx)
	s.QueryNear(queries[0], 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.QueryNear(queries[i%len(queries)], 8)
	}
}

// BenchmarkQueryAlgo1K2 is the acceptance path of the zero-allocation
// query engine: Algorithm 1 at the default round budget k=2, warmed.
func BenchmarkQueryAlgo1K2(b *testing.B) {
	idx, db := benchIndex(b, 1024, 250, 2)
	r := rng.New(904)
	queries := make([]bitvec.Vector, 32)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, db[i], 1024, 40)
	}
	a := NewAlgo1(idx, 2)
	for _, q := range queries {
		a.Query(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		probes += a.Query(queries[i%len(queries)]).Stats.Probes
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/query")
}

// BenchmarkQueryAlgo2K8 is the Algorithm 2 counterpart at k=8 (auxiliary
// tables on the probe path).
func BenchmarkQueryAlgo2K8(b *testing.B) {
	idx, db := benchIndex(b, 1024, 250, 8)
	r := rng.New(905)
	queries := make([]bitvec.Vector, 32)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, db[i], 1024, 40)
	}
	a := NewAlgo2(idx, 8)
	for _, q := range queries {
		a.Query(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		probes += a.Query(queries[i%len(queries)]).Stats.Probes
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/query")
}

// BenchmarkColdQuery includes the lazy cell evaluations a fresh address
// stream triggers, the realistic "first query of its kind" cost.
func BenchmarkColdQuery(b *testing.B) {
	idx, _ := benchIndex(b, 1024, 250, 3)
	r := rng.New(903)
	a := NewAlgo1(idx, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Query(hamming.Random(r, 1024))
	}
}
