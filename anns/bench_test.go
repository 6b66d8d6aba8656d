package anns

import (
	"testing"

	"repro/internal/hamming"
	"repro/internal/rng"
)

// The BenchmarkQuery* family measures the public query path end to end at
// steady state (tables warmed, sketches cached): the quantity the
// zero-allocation query engine optimizes. Run with
//
//	go test -bench BenchmarkQuery -benchmem ./anns ./internal/core
//
// and compare against BENCH_query_engine.json.

func benchDB(b *testing.B, n, d int, seed uint64) ([]Point, []Point) {
	b.Helper()
	r := rng.New(seed)
	db := make([]Point, n)
	for i := range db {
		db[i] = hamming.Random(r, d)
	}
	queries := make([]Point, 32)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, db[i%n], d, d/16)
	}
	return db, queries
}

// BenchmarkQuery is the acceptance path: Algorithm 1 with the default
// round budget k=2 behind the public anns.Index API.
func BenchmarkQuery(b *testing.B) {
	db, queries := benchDB(b, 256, 256, 41)
	ix, err := Build(db, Options{Dimension: 256, Rounds: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range queries { // warm the lazy cells and sketches
		ix.Query(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(queries[i%len(queries)])
	}
}

// BenchmarkQueryNear is the 1-probe λ-ANNS decision path.
func BenchmarkQueryNear(b *testing.B) {
	db, queries := benchDB(b, 256, 256, 43)
	ix, err := Build(db, Options{Dimension: 256, Rounds: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range queries {
		ix.QueryNear(q, 16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.QueryNear(queries[i%len(queries)], 16)
	}
}

// BenchmarkQuerySharded exercises the fan-out + Hamming merge path.
func BenchmarkQuerySharded(b *testing.B) {
	db, queries := benchDB(b, 512, 256, 47)
	sx, err := BuildSharded(db, 4, Options{Dimension: 256, Rounds: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range queries {
		sx.Query(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sx.Query(queries[i%len(queries)])
	}
}

// BenchmarkQueryBatch measures the pooled batch entry point (8 workers).
func BenchmarkQueryBatch(b *testing.B) {
	db, queries := benchDB(b, 256, 256, 53)
	ix, err := Build(db, Options{Dimension: 256, Rounds: 2})
	if err != nil {
		b.Fatal(err)
	}
	ix.BatchQuery(queries, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.BatchQuery(queries, 8)
	}
}

// BenchmarkBatchNovel8 is the engine-novel workload's unit of work without
// the wire: one BatchQuery of 8 never-seen points on the whole-path
// benchmark's index shape (n = 16 384, d = 512, Rounds 3, planted distance
// d/10), so every probe of every round is a cold cell and the table scans
// are the cost. Fresh planted points every iteration, drawn before the
// clock starts. Before batches ran round-synchronously this took ≈ 2.87 ms
// per batch (each cold cell its own scan).
func BenchmarkBatchNovel8(b *testing.B) {
	const n, d = 16384, 512
	r := rng.New(59)
	db := make([]Point, n)
	for i := range db {
		db[i] = hamming.Random(r, d)
	}
	ix, err := Build(db, Options{Dimension: d, Rounds: 3})
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][]Point, b.N)
	for i := range batches {
		batches[i] = make([]Point, 8)
		for j := range batches[i] {
			batches[i][j] = hamming.AtDistance(r, db[r.Intn(n)], d, d/10)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range ix.BatchQuery(batches[i], 0) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}
