package anns

import (
	"testing"

	"repro/internal/hamming"
	"repro/internal/rng"
)

// Steady-state allocation ceilings of the zero-allocation query engine.
// The single-index paths run on pooled query contexts and binary cell
// addresses, so after the lazy cells and sketches are warmed a query
// performs no heap allocation at all; the sharded fan-out pays only for
// its per-shard goroutines. These tests pin those ceilings so an
// accidental reintroduction of per-probe allocation fails CI
// (run explicitly: GOFLAGS=-count=1 go test -run TestAllocs ./anns).

const (
	// allocCeilingQuery bounds Index.Query and Index.QueryNear: the warm
	// path allocates nothing. (AllocsPerRun reports the per-run average
	// rounded down, so a stray pool refill after a GC does not show.)
	allocCeilingQuery = 0
	// allocCeilingSharded bounds the ShardedIndex merge path: one
	// goroutine spawn per shard (4 here) plus the wait-group round trip.
	// Everything else — per-shard contexts, result slots — is pooled.
	allocCeilingSharded = 9
)

// skipIfRace skips allocation-ceiling tests under the race detector,
// whose instrumentation allocates on paths that are free in production.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation ceilings are measured without -race instrumentation")
	}
}

func allocFixture(t *testing.T, n, d int, shards int) (*Index, *ShardedIndex, []Point) {
	t.Helper()
	r := rng.New(71)
	db := make([]Point, n)
	for i := range db {
		db[i] = hamming.Random(r, d)
	}
	queries := make([]Point, 16)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, db[i], d, d/16)
	}
	ix, err := Build(db, Options{Dimension: d, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildSharded(db, shards, Options{Dimension: d, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ix, sx, queries
}

func TestAllocsQuery(t *testing.T) {
	skipIfRace(t)
	ix, _, queries := allocFixture(t, 128, 256, 4)
	for _, q := range queries { // warm lazy cells, sketches, pooled ctxs
		ix.Query(q)
	}
	i := 0
	got := testing.AllocsPerRun(100, func() {
		ix.Query(queries[i%len(queries)])
		i++
	})
	if got > allocCeilingQuery {
		t.Errorf("Index.Query allocates %.1f/op at steady state, ceiling %v",
			got, allocCeilingQuery)
	}
}

func TestAllocsQueryNear(t *testing.T) {
	skipIfRace(t)
	ix, _, queries := allocFixture(t, 128, 256, 4)
	for _, q := range queries {
		ix.QueryNear(q, 16)
	}
	i := 0
	got := testing.AllocsPerRun(100, func() {
		ix.QueryNear(queries[i%len(queries)], 16)
		i++
	})
	if got > allocCeilingQuery {
		t.Errorf("Index.QueryNear allocates %.1f/op at steady state, ceiling %v",
			got, allocCeilingQuery)
	}
}

func TestAllocsShardedMerge(t *testing.T) {
	skipIfRace(t)
	_, sx, queries := allocFixture(t, 128, 256, 4)
	for _, q := range queries {
		sx.Query(q)
	}
	i := 0
	got := testing.AllocsPerRun(100, func() {
		sx.Query(queries[i%len(queries)])
		i++
	})
	if got > allocCeilingSharded {
		t.Errorf("ShardedIndex.Query allocates %.1f/op at steady state, ceiling %v",
			got, allocCeilingSharded)
	}
}

// TestAllocsBuildScalesWithLevelsNotPoints pins the flat-storage build
// contract: preprocessing allocates per level (matrices, sketch blocks,
// oracles), never per database point. The membership tables used to key
// a map[string]int on packed-byte strings — two allocations per point —
// so a regression back to per-entry keys makes the large build's count
// diverge from the small one's by hundreds and fails the delta ceiling.
func TestAllocsBuildScalesWithLevelsNotPoints(t *testing.T) {
	skipIfRace(t)
	const d = 128
	buildAllocs := func(n int) float64 {
		r := rng.New(uint64(n))
		db := make([]Point, n)
		for i := range db {
			db[i] = hamming.Random(r, d)
		}
		// BuildWorkers 1 keeps the count deterministic (no goroutine spawns).
		return testing.AllocsPerRun(3, func() {
			if _, err := Build(db, Options{Dimension: d, Rounds: 2, BuildWorkers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := buildAllocs(128)
	large := buildAllocs(512)
	// 4x the points must cost O(1) extra allocations (slice-header views
	// aside, which AllocsPerRun already charges to both sides equally).
	const ceiling = 16
	if large-small > ceiling {
		t.Errorf("Build(n=512) allocates %.0f more than Build(n=128) (ceiling %d): per-point allocation crept back in",
			large-small, ceiling)
	}
}

// TestAllocsScratchReuse pins the per-worker reuse contract: a held
// Scratch makes repeated queries allocation-free without touching the
// shared pool at all.
func TestAllocsScratchReuse(t *testing.T) {
	skipIfRace(t)
	ix, _, queries := allocFixture(t, 128, 256, 4)
	sc := NewScratch()
	for _, q := range queries {
		ix.QueryScratch(q, sc)
	}
	i := 0
	got := testing.AllocsPerRun(100, func() {
		ix.QueryScratch(queries[i%len(queries)], sc)
		i++
	})
	if got > allocCeilingQuery {
		t.Errorf("Index.QueryScratch allocates %.1f/op at steady state, ceiling %v",
			got, allocCeilingQuery)
	}
}

// TestAllocsBatchQuery8 pins the one-chunk batch (every /v1/batch of the
// engine-novel workload): it runs on the calling goroutine — no job
// channel, no worker, no WaitGroup — and everything the round-synchronous
// executor needs (contexts, group lists, miss lists, transposed keys)
// comes from pools, so a warm batch allocates its result slice and
// nothing else. A cold batch adds only what its new cells cost the memos,
// which grow by doubling and by chunk: amortised, under two allocations
// per batch of ≈ 50 new cells.
func TestAllocsBatchQuery8(t *testing.T) {
	skipIfRace(t)
	ix, _, queries := allocFixture(t, 128, 256, 4)
	warm := queries[:8]
	ix.BatchQuery(warm, 0)
	if got := testing.AllocsPerRun(100, func() { ix.BatchQuery(warm, 0) }); got > 1 {
		t.Errorf("warm BatchQuery of 8 allocates %.1f/op, want 1 (the result slice)", got)
	}

	const runs = 100
	r := rng.New(72)
	cold := make([][]Point, runs+1) // AllocsPerRun calls once more to warm up
	for i := range cold {
		cold[i] = make([]Point, 8)
		for j := range cold[i] {
			cold[i][j] = hamming.AtDistance(r, queries[j], 256, 40)
		}
	}
	before := ix.Space().MaterializedCells
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		ix.BatchQuery(cold[i], 0)
		i++
	})
	if cells := ix.Space().MaterializedCells - before; cells < 20*runs {
		t.Fatalf("the cold batches materialised %d cells: not cold", cells)
	}
	if got > 3 {
		t.Errorf("cold BatchQuery of 8 allocates %.1f/op, want ≤ 3 (the result slice + amortised memo growth)", got)
	}
}
