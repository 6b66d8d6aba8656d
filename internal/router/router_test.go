package router

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/anns"
	"repro/internal/server"
	"repro/internal/workload"
)

const testDim = 64

// testSpec is the corpus both sides of every equivalence test
// regenerate independently — the same contract annsctl shard-split and
// a single-process annsd rely on: same spec ⇒ same corpus.
func testSpec() workload.Spec {
	return workload.Spec{Kind: "planted", D: testDim, N: 48, Q: 12, Dist: 6, Seed: 21}
}

func buildShards(t *testing.T, shards int) (*anns.ShardedIndex, *workload.Instance) {
	t.Helper()
	inst, err := testSpec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]anns.Point, len(inst.DB))
	copy(pts, inst.DB)
	sx, err := anns.BuildSharded(pts, shards, anns.Options{Dimension: testDim, Rounds: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return sx, inst
}

// serveShard exposes one shard index over HTTP exactly as a replica
// annsd would, optionally behind a middleware (delays, failures).
func serveShard(t *testing.T, ix server.Searcher, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	srv, err := server.New(ix, server.Config{Dimension: testDim, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := http.Handler(srv.Handler())
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func newRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestRouterMatchesSingleProcess is the distributed-equivalence
// acceptance property: a router scatter-gathering over per-shard
// servers answers /v1/query, /v1/near, and /v1/batch byte-identically —
// results and rounds/probes accounting — to a single process serving
// the equivalent ShardedIndex, with the two sides building their
// corpora from independent Spec.Generate calls (the two-process path).
func TestRouterMatchesSingleProcess(t *testing.T) {
	const shards = 2
	// Side A: the "split" path — per-shard servers + router.
	sxA, inst := buildShards(t, shards)
	var urls [][]string
	for s := 0; s < shards; s++ {
		ts := serveShard(t, sxA.Shard(s), nil)
		urls = append(urls, []string{ts.URL})
	}
	rt := newRouter(t, Config{Dimension: testDim, N: sxA.Len(), Replicas: urls})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	// Side B: one process serving the whole sharded index.
	sxB, _ := buildShards(t, shards)
	single := serveShard(t, sxB, nil)

	for qi, q := range inst.Queries {
		req := server.QueryRequest{Point: server.EncodePoint(q.X)}
		_, rawA := postJSON(t, rts.URL+"/v1/query", req)
		_, rawB := postJSON(t, single.URL+"/v1/query", req)
		var a, b server.QueryResponse
		if err := json.Unmarshal(rawA, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rawB, &b); err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: router %+v != single-process %+v", qi, a, b)
		}

		near := server.NearRequest{Point: server.EncodePoint(q.X), Lambda: float64(q.NNDist + 1)}
		_, rawA = postJSON(t, rts.URL+"/v1/near", near)
		_, rawB = postJSON(t, single.URL+"/v1/near", near)
		if err := json.Unmarshal(rawA, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rawB, &b); err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("near %d: router %+v != single-process %+v", qi, a, b)
		}
	}

	// The whole query stream as one batch.
	batch := server.BatchRequest{}
	for _, q := range inst.Queries {
		batch.Points = append(batch.Points, server.EncodePoint(q.X))
	}
	_, rawA := postJSON(t, rts.URL+"/v1/batch", batch)
	_, rawB := postJSON(t, single.URL+"/v1/batch", batch)
	var ba, bb server.BatchResponse
	if err := json.Unmarshal(rawA, &ba); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawB, &bb); err != nil {
		t.Fatal(err)
	}
	if len(ba.Results) != len(bb.Results) {
		t.Fatalf("batch sizes differ: %d vs %d", len(ba.Results), len(bb.Results))
	}
	for i := range ba.Results {
		if ba.Results[i] != bb.Results[i] {
			t.Fatalf("batch point %d: router %+v != single-process %+v", i, ba.Results[i], bb.Results[i])
		}
	}
}

// TestRouterShuffledReplyOrder injects random per-request delays into
// every shard server so shard replies land in a different order on
// every attempt, and requires the merged answer to stay identical: the
// fold depends on shard position, never on arrival order.
func TestRouterShuffledReplyOrder(t *testing.T) {
	const shards = 3
	inst, err := testSpec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]anns.Point, len(inst.DB))
	copy(pts, inst.DB)
	sx, err := anns.BuildSharded(pts, shards, anns.Options{Dimension: testDim, Rounds: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	rnd := rand.New(rand.NewSource(99))
	jitter := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			d := time.Duration(rnd.Intn(12)) * time.Millisecond
			mu.Unlock()
			time.Sleep(d)
			next.ServeHTTP(w, r)
		})
	}
	var urls [][]string
	for s := 0; s < shards; s++ {
		ts := serveShard(t, sx.Shard(s), jitter)
		urls = append(urls, []string{ts.URL})
	}
	// Hedging off (cold delay far beyond the jitter) so the only moving
	// part is reply order.
	rt := newRouter(t, Config{
		Dimension: testDim, N: sx.Len(), Replicas: urls,
		HedgeCold: time.Second,
	})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	q := inst.Queries[0]
	req := server.QueryRequest{Point: server.EncodePoint(q.X)}
	var first server.QueryResponse
	for i := 0; i < 20; i++ {
		_, raw := postJSON(t, rts.URL+"/v1/query", req)
		var qr server.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = qr
			want, err := sx.Query(q.X)
			if err != nil {
				t.Fatal(err)
			}
			if qr.Index != want.Index || qr.Distance != want.Distance ||
				qr.Rounds != want.Rounds || qr.Probes != want.Probes {
				t.Fatalf("router %+v != in-process %+v", qr, want)
			}
			continue
		}
		if qr != first {
			t.Fatalf("attempt %d: %+v differs from first %+v (reply order leaked into the merge)", i, qr, first)
		}
	}
}

// TestRouterFailoverAndEviction kills one replica of a two-replica
// shard and requires: every query still answered correctly, the dead
// replica evicted, and the failure visible in the /statsz rollup
// (failovers or hedge wins — whichever path rescued each request).
func TestRouterFailoverAndEviction(t *testing.T) {
	const shards = 2
	sx, inst := buildShards(t, shards)

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from now on

	var urls [][]string
	for s := 0; s < shards; s++ {
		live := serveShard(t, sx.Shard(s), nil)
		if s == 0 {
			// Dead replica first so the round-robin cursor keeps landing on it.
			urls = append(urls, []string{dead.URL, live.URL})
		} else {
			urls = append(urls, []string{live.URL})
		}
	}
	// EvictAfter 2 with an hour-long probe interval: the startup sweep's
	// single failure leaves the dead replica healthy-looking (fails=1),
	// so eviction must come from the request path — the failover branch
	// this test exists to exercise.
	rt := newRouter(t, Config{
		Dimension: testDim, N: sx.Len(), Replicas: urls,
		EvictAfter:    2,
		ProbeInterval: time.Hour,
		BackoffBase:   time.Minute, // stay evicted for the whole test
	})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	for qi, q := range inst.Queries {
		want, err := sx.Query(q.X)
		if err != nil {
			t.Fatal(err)
		}
		_, raw := postJSON(t, rts.URL+"/v1/query", server.QueryRequest{Point: server.EncodePoint(q.X)})
		var qr server.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Error != "" || qr.Index != want.Index || qr.Distance != want.Distance {
			t.Fatalf("query %d through degraded shard: got %+v, want %+v", qi, qr, want)
		}
	}

	stats := rt.Stats()
	sh0 := stats.ShardStats[0]
	if sh0.Failovers+sh0.HedgeWins == 0 {
		t.Errorf("no failovers or hedge wins recorded on the degraded shard: %+v", sh0)
	}
	if sh0.Errors != 0 {
		t.Errorf("%d shard-level errors surfaced despite a live replica", sh0.Errors)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := rt.Stats().ShardStats[0]
		evicted := 0
		for _, rep := range st.ReplicaStats {
			if rep.State == StateEvicted {
				evicted++
			}
		}
		if evicted == 1 && st.Healthy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead replica never evicted: %+v", st.ReplicaStats)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterHedging pins the tail-tolerance path: with one replica
// answering slowly and a fast sibling, the hedge fires after the cold
// delay and the fast replica's answer wins — correctly and with the
// hedge counted.
func TestRouterHedging(t *testing.T) {
	const shards = 2
	sx, inst := buildShards(t, shards)
	slow := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/healthz" {
				time.Sleep(300 * time.Millisecond)
			}
			next.ServeHTTP(w, r)
		})
	}
	var urls [][]string
	for s := 0; s < shards; s++ {
		if s == 0 {
			slowTS := serveShard(t, sx.Shard(s), slow)
			fastTS := serveShard(t, sx.Shard(s), nil)
			urls = append(urls, []string{slowTS.URL, fastTS.URL})
		} else {
			ts := serveShard(t, sx.Shard(s), nil)
			urls = append(urls, []string{ts.URL})
		}
	}
	rt := newRouter(t, Config{
		Dimension: testDim, N: sx.Len(), Replicas: urls,
		HedgeCold: 15 * time.Millisecond,
		HedgeMin:  time.Millisecond,
	})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	hits := 0
	for _, q := range inst.Queries[:4] {
		want, err := sx.Query(q.X)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, raw := postJSON(t, rts.URL+"/v1/query", server.QueryRequest{Point: server.EncodePoint(q.X)})
		elapsed := time.Since(start)
		var qr server.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Error != "" || qr.Index != want.Index {
			t.Fatalf("hedged query wrong: got %+v, want %+v", qr, want)
		}
		if elapsed < 250*time.Millisecond {
			hits++ // beat the slow replica: the hedge must have won
		}
	}
	st := rt.Stats().ShardStats[0]
	if st.Hedges == 0 {
		t.Errorf("no hedges issued against a 300ms replica with a 15ms hedge delay")
	}
	if hits > 0 && st.HedgeWins == 0 {
		t.Errorf("%d fast answers but no hedge wins counted: %+v", hits, st)
	}
}

// TestRouterAdmission pins the bounded in-flight admission: with one
// slot and a slow shard, concurrent requests are rejected with 503 and
// counted, not queued without bound.
func TestRouterAdmission(t *testing.T) {
	sx, inst := buildShards(t, 2)
	slow := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/healthz" {
				time.Sleep(200 * time.Millisecond)
			}
			next.ServeHTTP(w, r)
		})
	}
	var urls [][]string
	for s := 0; s < 2; s++ {
		ts := serveShard(t, sx.Shard(s), slow)
		urls = append(urls, []string{ts.URL})
	}
	rt := newRouter(t, Config{
		Dimension: testDim, N: sx.Len(), Replicas: urls,
		MaxInFlight: 1,
		HedgeCold:   time.Second,
	})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	req := server.QueryRequest{Point: server.EncodePoint(inst.Queries[0].X)}
	codes := make(chan int, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, rts.URL+"/v1/query", req)
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	ok, rejected := 0, 0
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if ok == 0 || rejected == 0 {
		t.Errorf("ok=%d rejected=%d, want both paths exercised", ok, rejected)
	}
	if got := rt.Stats().Rejected; got != int64(rejected) {
		t.Errorf("stats.rejected = %d, %d requests saw 503", got, rejected)
	}
}

// TestReplicaStateMachine pins the eviction/readmission transitions and
// the exponential backoff clamp.
func TestReplicaStateMachine(t *testing.T) {
	rep := &replica{url: "http://x"}
	const evictAfter = 2
	base, max := 100*time.Millisecond, 350*time.Millisecond
	// The state machine runs on whatever instants the caller feeds it,
	// so the whole transition sequence is pinned on virtual time.
	now := time.Unix(1000, 0)

	if rep.reportFailure(now, evictAfter, base, max) {
		t.Fatal("one failure below the threshold reported an eviction transition")
	}
	if !rep.healthy() {
		t.Fatal("one failure evicted below the threshold")
	}
	if !rep.reportFailure(now, evictAfter, base, max) {
		t.Fatal("crossing evictAfter did not report an eviction transition")
	}
	if rep.healthy() {
		t.Fatal("still healthy after evictAfter consecutive failures")
	}
	if s := rep.snapshot(); s.Evictions != 1 || s.BackoffMS != 100 ||
		s.LastTransitionUnixMS != now.UnixMilli() {
		t.Fatalf("post-eviction snapshot %+v", s)
	}
	rep.reportFailure(now, evictAfter, base, max) // failed readmission probe: 200ms
	rep.reportFailure(now, evictAfter, base, max) // 350ms (clamped from 400ms)
	if s := rep.snapshot(); s.BackoffMS != 350 {
		t.Fatalf("backoff = %dms, want clamp at 350ms", s.BackoffMS)
	}
	if rep.probeEligible(now) {
		t.Fatal("probe-eligible immediately after a fresh backoff")
	}
	if !rep.probeEligible(now.Add(time.Second)) {
		t.Fatal("not probe-eligible after the backoff expires")
	}
	readmitAt := now.Add(time.Second)
	if !rep.reportSuccess(readmitAt) {
		t.Fatal("success on an evicted replica did not report a readmission transition")
	}
	if !rep.healthy() {
		t.Fatal("success did not readmit")
	}
	if s := rep.snapshot(); s.Fails != 0 || s.BackoffMS != 0 ||
		s.Readmissions != 1 || s.LastTransitionUnixMS != readmitAt.UnixMilli() {
		t.Fatalf("readmitted snapshot %+v, want reset fails/backoff and readmissions=1", s)
	}
	if rep.reportSuccess(readmitAt) {
		t.Fatal("success on a healthy replica reported a transition")
	}

	// A probe success readmits but must preserve the request-path failure
	// streak: the next request failure re-evicts immediately instead of
	// restarting the EvictAfter count from zero.
	rep.reportFailure(now, evictAfter, base, max)
	rep.reportFailure(now, evictAfter, base, max)
	if rep.healthy() {
		t.Fatal("not evicted before probe readmission check")
	}
	if !rep.probeSuccess(now) {
		t.Fatal("probe success on an evicted replica did not report a readmission")
	}
	if !rep.healthy() {
		t.Fatal("probe success did not readmit")
	}
	if s := rep.snapshot(); s.Fails == 0 {
		t.Fatal("probe success cleared the request-path failure streak")
	}
	if s := rep.snapshot(); s.Readmissions != 2 {
		t.Fatalf("readmissions = %d after a second readmission, want 2", s.Readmissions)
	}
	rep.reportFailure(now, evictAfter, base, max)
	if rep.healthy() {
		t.Fatal("query-failing prober-pleasing replica not re-evicted after one further failure")
	}
}

// TestLatWindowQuantiles pins the hedge-delay source: quantiles over
// the recent window and the cached refresh.
func TestLatWindowQuantiles(t *testing.T) {
	w := newLatWindow(0.90)
	if d := w.hedgeDelay(); d != 0 {
		t.Fatalf("cold window hedge delay = %v, want 0", d)
	}
	for i := 1; i <= 100; i++ {
		w.record(time.Duration(i) * time.Millisecond)
	}
	qs := w.quantiles(0.50, 0.95)
	if qs[0] < 45 || qs[0] > 55 {
		t.Errorf("p50 = %v, want ≈50", qs[0])
	}
	if qs[1] < 90 || qs[1] > 100 {
		t.Errorf("p95 = %v, want ≈95", qs[1])
	}
	if d := w.hedgeDelay(); d < 80*time.Millisecond || d > 100*time.Millisecond {
		t.Errorf("cached hedge delay = %v, want ≈90ms", d)
	}
}

// TestManifest pins the placement-manifest contract: round-trip,
// validation failures, and path resolution.
func TestManifest(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{
		FormatVersion: ManifestVersion,
		Placement:     PlacementRoundRobin,
		Shards:        2,
		N:             7,
		Dimension:     64,
		Seed:          42,
		Files: []ManifestShard{
			{Shard: 0, Path: "shard-0.snap", N: 4, Seed: 1},
			{Shard: 1, Path: "shard-1.snap", N: 3, Seed: 2},
		},
	}
	path := filepath.Join(dir, "manifest.json")
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 2 || got.N != 7 || got.Files[1].Seed != 2 {
		t.Fatalf("round-trip lost fields: %+v", got)
	}
	if p := got.ShardPath(path, 1); p != filepath.Join(dir, "shard-1.snap") {
		t.Errorf("ShardPath = %q", p)
	}

	bad := *m
	bad.N = 99 // sizes no longer sum
	if err := bad.Validate(); err == nil {
		t.Error("size-mismatched manifest validated")
	}
	bad = *m
	bad.Placement = "hash"
	if err := bad.Validate(); err == nil {
		t.Error("unknown placement validated")
	}
	bad = *m
	bad.FormatVersion = 99
	if err := bad.Validate(); err == nil {
		t.Error("future format version validated")
	}
	swapped := *m
	swapped.Files = []ManifestShard{m.Files[1], m.Files[0]}
	if err := swapped.Validate(); err == nil {
		t.Error("out-of-order shard files validated")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Error("truncated manifest loaded")
	}
}

// TestRouterEvictsMisroutedReplica pins the manifest cross-check: a
// replica that is alive but serves the *other* shard's snapshot (same
// size, different derived seed — undetectable by n alone) must be
// evicted by the health prober with a "misrouted" reason, and queries
// must keep merging only correct replicas' answers.
func TestRouterEvictsMisroutedReplica(t *testing.T) {
	const shards = 2
	sx, inst := buildShards(t, shards)
	sizes := make([]int, shards)
	seeds := make([]uint64, shards)
	servers := make([]*httptest.Server, shards)
	for s := 0; s < shards; s++ {
		sizes[s] = sx.Shard(s).Len()
		seeds[s] = sx.Shard(s).Options().Seed
		servers[s] = serveShard(t, sx.Shard(s), nil)
	}
	urls := [][]string{
		// Shard 0's set wrongly includes shard 1's server (a swapped
		// -shard flag), listed first so round-robin would hit it.
		{servers[1].URL, servers[0].URL},
		{servers[1].URL},
	}
	rt := newRouter(t, Config{
		Dimension: testDim, N: sx.Len(), Replicas: urls,
		ShardSizes: sizes, ShardSeeds: seeds,
		EvictAfter:    1,
		ProbeInterval: 10 * time.Millisecond,
		BackoffBase:   time.Minute,
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		reps := rt.Stats().ShardStats[0].ReplicaStats
		if reps[0].State == StateEvicted && strings.Contains(reps[0].LastError, "misrouted") &&
			reps[1].State == StateHealthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("misrouted replica never evicted: %+v", reps)
		}
		time.Sleep(5 * time.Millisecond)
	}

	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	for qi, q := range inst.Queries[:4] {
		want, err := sx.Query(q.X)
		if err != nil {
			t.Fatal(err)
		}
		_, raw := postJSON(t, rts.URL+"/v1/query", server.QueryRequest{Point: server.EncodePoint(q.X)})
		var qr server.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Error != "" || qr.Index != want.Index || qr.Distance != want.Distance {
			t.Fatalf("query %d with misrouted replica present: got %+v, want %+v", qi, qr, want)
		}
	}
}

// TestRouterRejectsBadRequests pins the 400 paths: wrong-dimension
// points and malformed bodies fail at the router without fanning out.
func TestRouterRejectsBadRequests(t *testing.T) {
	sx, _ := buildShards(t, 2)
	var urls [][]string
	for s := 0; s < 2; s++ {
		ts := serveShard(t, sx.Shard(s), nil)
		urls = append(urls, []string{ts.URL})
	}
	rt := newRouter(t, Config{Dimension: testDim, N: sx.Len(), Replicas: urls})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	resp, err := http.Post(rts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	_, raw := postJSON(t, rts.URL+"/v1/query", server.QueryRequest{Point: "AAAA"})
	var er server.ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
		t.Errorf("wrong-dimension point accepted: %s", raw)
	}
	if got := rt.Stats().ShardStats[0].Requests; got != 0 {
		t.Errorf("%d shard requests fanned out for rejected inputs", got)
	}
	_, raw = postJSON(t, rts.URL+"/v1/near", server.NearRequest{Point: "AAAA", Lambda: -1})
	if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
		t.Errorf("negative lambda accepted: %s", raw)
	}
}

// TestRouterSnapshotPath runs the real file-based flow in-process: split
// the sharded index into per-shard snapshots plus manifest (the layout
// annsctl shard-split writes), reload each file through the manifest,
// serve the loaded shards, and require router answers to match the
// original in-memory index.
func TestRouterSnapshotPath(t *testing.T) {
	const shards = 2
	sx, inst := buildShards(t, shards)
	mpath, err := WriteShardSplit(t.TempDir(), sx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != shards || m.N != sx.Len() || m.Dimension != testDim || m.Seed != sx.Options().Seed {
		t.Fatalf("manifest %+v does not describe the index it was split from", m)
	}
	var urls [][]string
	for s := 0; s < shards; s++ {
		rf, err := os.Open(m.ShardPath(mpath, s))
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := anns.LoadIndex(rf)
		rf.Close()
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Len() != m.Files[s].N || loaded.Options().Seed != m.Files[s].Seed {
			t.Fatalf("shard %d: file holds n=%d seed=%d, manifest says %+v", s, loaded.Len(), loaded.Options().Seed, m.Files[s])
		}
		ts := serveShard(t, loaded, nil)
		urls = append(urls, []string{ts.URL})
	}
	rt := newRouter(t, Config{Dimension: testDim, N: sx.Len(), Replicas: urls})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	for qi, q := range inst.Queries {
		want, err := sx.Query(q.X)
		if err != nil {
			t.Fatal(err)
		}
		_, raw := postJSON(t, rts.URL+"/v1/query", server.QueryRequest{Point: server.EncodePoint(q.X)})
		var qr server.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Index != want.Index || qr.Distance != want.Distance ||
			qr.Rounds != want.Rounds || qr.Probes != want.Probes || qr.MaxParallel != want.MaxParallel {
			t.Fatalf("query %d over snapshot-loaded shards: got %+v, want %+v", qi, qr, want)
		}
	}
}
