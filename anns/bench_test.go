package anns

import (
	"errors"
	"os"
	"testing"

	"repro/internal/hamming"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// The BenchmarkQuery* family measures the public query path end to end at
// steady state (tables warmed, sketches cached): the quantity the
// zero-allocation query engine optimizes. Run with
//
//	go test -bench BenchmarkQuery -benchmem ./anns ./internal/core
//
// The allocs/op these print are held exactly by the TestAllocs* ceilings
// here and in internal/core; ns/op is judged on the whole-path benchmark
// (benchmark/), not here.

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

// BenchmarkOpenSnapshot puts the three ways a process can come to serve
// one saved index side by side: mmap (structural decode over the mapping,
// sections borrowed from the page cache), heap (stream decode, every
// section copied and checksummed) and rebuild (preprocess the points
// again). "Build once, serve anywhere" is the claim that the first two
// are orders of magnitude under the third; mmap vs heap is the boot-time
// and B/op cost of copying.
func BenchmarkOpenSnapshot(b *testing.B) {
	db, _ := benchDB(b, 4096, 512, 61)
	opts := Options{Dimension: 512, Rounds: 3}
	ix, err := Build(db, opts)
	if err != nil {
		b.Fatal(err)
	}
	path := saveToFile(b, func(f *os.File) error { return SaveIndex(f, ix) }, "index.snap")
	open := func(mode LoadMode) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l, err := OpenSnapshot(path, mode)
				if errors.Is(err, snapshot.ErrMmapUnavailable) {
					b.Skip(err)
				}
				if err != nil {
					b.Fatal(err)
				}
				l.Close()
			}
		}
	}
	b.Run("mmap", open(LoadMmap))
	b.Run("heap", open(LoadHeap))
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(db, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
