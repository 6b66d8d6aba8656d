package server

import (
	"net/http"
	"strings"
	"testing"

	"repro/anns"
	"repro/internal/hamming"
	"repro/internal/rng"
)

// The read front end must be free: it is shared by both serving tiers,
// and on the routed workloads the router, shard RPC wire and JSON
// handling are ≈ 90 % of a request (BENCHMARK.json), so an allocation
// added per request here is paid twice per routed query. These tests pin
// allocs/op of Handler().ServeHTTP (request construction and recorder
// included — the same harness measured the ceilings) at the counts of
// the commit before the front end existed; run explicitly with
//
//	GOFLAGS=-count=1 go test -run TestAllocs ./anns ./internal/server

const (
	// Measured at the parent (two hand-written pipelines). AllocsPerRun
	// truncates its average, so a stray pool refill under GC does not
	// move the figure and the ceilings carry no slack.
	allocCeilingHandleQueryMiss = 41
	allocCeilingHandleQueryHit  = 31
	// A batch of one chunk runs on the worker that admitted it: no job
	// channel, batch worker goroutine or WaitGroup (73 with them).
	allocCeilingHandleBatch8 = 69
)

// handlerFixture is a warm single-index server (one worker, so the
// counts carry no goroutine-spawn noise) plus encoded request bodies.
func handlerFixture(tb testing.TB, cacheEntries int) (http.Handler, []string, string) {
	tb.Helper()
	const n, d = 128, 256
	r := rng.New(71)
	db := make([]anns.Point, n)
	for i := range db {
		db[i] = hamming.Random(r, d)
	}
	ix, err := anns.Build(db, anns.Options{Dimension: d, Rounds: 2})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(ix, Config{Dimension: d, Workers: 1, BatchWorkers: 1, CacheEntries: cacheEntries})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	bodies := make([]string, 8)
	points := make([]string, len(bodies))
	for i := range bodies {
		points[i] = EncodePoint(hamming.AtDistance(r, db[i], d, d/16))
		bodies[i] = `{"point":"` + points[i] + `"}`
	}
	batch := `{"points":["` + strings.Join(points, `","`) + `"]}`
	h := srv.Handler()
	for _, b := range bodies { // warm lazy cells, sketches, pooled contexts, the cache
		serve(tb, h, "/v1/query", b)
	}
	serve(tb, h, "/v1/batch", batch)
	return h, bodies, batch
}

func serve(tb testing.TB, h http.Handler, path, body string) {
	if w := serveJSON(h, path, body); w.Code != http.StatusOK {
		tb.Fatalf("%s answered %d: %s", path, w.Code, w.Body)
	}
}

func handlerAllocs(t *testing.T, cacheEntries int, path string, batch bool) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation ceilings are measured without -race instrumentation")
	}
	h, bodies, batchBody := handlerFixture(t, cacheEntries)
	i := 0
	return testing.AllocsPerRun(200, func() {
		body := bodies[i%len(bodies)]
		if batch {
			body = batchBody
		}
		serve(t, h, path, body)
		i++
	})
}

func TestAllocsHandleQueryMiss(t *testing.T) {
	if got := handlerAllocs(t, 0, "/v1/query", false); got > allocCeilingHandleQueryMiss {
		t.Errorf("/v1/query miss allocates %.1f/op, ceiling %d", got, allocCeilingHandleQueryMiss)
	}
}

func TestAllocsHandleQueryHit(t *testing.T) {
	if got := handlerAllocs(t, 64, "/v1/query", false); got > allocCeilingHandleQueryHit {
		t.Errorf("/v1/query hit allocates %.1f/op, ceiling %d", got, allocCeilingHandleQueryHit)
	}
}

func TestAllocsHandleBatch8(t *testing.T) {
	if got := handlerAllocs(t, 0, "/v1/batch", true); got > allocCeilingHandleBatch8 {
		t.Errorf("/v1/batch of 8 allocates %.1f/op, ceiling %d", got, allocCeilingHandleBatch8)
	}
}

func benchHandler(b *testing.B, cacheEntries int, path string, batch bool) {
	h, bodies, batchBody := handlerFixture(b, cacheEntries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := bodies[i%len(bodies)]
		if batch {
			body = batchBody
		}
		serve(b, h, path, body)
	}
}

func BenchmarkHandleQueryHit(b *testing.B)  { benchHandler(b, 64, "/v1/query", false) }
func BenchmarkHandleQueryMiss(b *testing.B) { benchHandler(b, 0, "/v1/query", false) }
func BenchmarkHandleBatch8(b *testing.B)    { benchHandler(b, 0, "/v1/batch", true) }
