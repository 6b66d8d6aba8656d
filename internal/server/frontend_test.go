package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/anns"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// fakeBackend scripts the execute stage so the front end's own rules —
// what is cached, at which generation, what is counted — are tested once,
// against neither tier. Every call is appended to log.
type fakeBackend struct {
	mu    sync.Mutex
	log   []string
	gen   uint64
	reply QueryResponse
	fail  *Failure
	// bump advances the generation from inside ExecQuery: a write landing
	// while the query runs.
	bump bool
}

func (b *fakeBackend) note(s string) {
	b.mu.Lock()
	b.log = append(b.log, s)
	b.mu.Unlock()
}

func (b *fakeBackend) Now() time.Time { return time.Now() }

func (b *fakeBackend) Generation() uint64 {
	b.note("generation")
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gen
}

func (b *fakeBackend) ExecQuery(_ context.Context, q ReadRequest, _ *obs.Trace) (QueryResponse, *Failure) {
	b.note("exec " + q.Path)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bump {
		b.gen++
	}
	return b.reply, b.fail
}

func (b *fakeBackend) ExecBatch(_ context.Context, q ReadRequest, _ *obs.Trace) (BatchResponse, *Failure) {
	b.note("exec " + q.Path)
	out := BatchResponse{Results: make([]QueryResponse, len(q.Points))}
	for i := range out.Results {
		out.Results[i] = b.reply
	}
	// The middle slot was shed by the deadline before it ran.
	out.Results[len(out.Results)/2] = ToResponse(anns.Result{Index: -1, Distance: -1}, context.DeadlineExceeded)
	return out, b.fail
}

func (b *fakeBackend) execs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, l := range b.log {
		if strings.HasPrefix(l, "exec") {
			n++
		}
	}
	return n
}

func newFakeFrontEnd(be *fakeBackend, onTrace func(obs.TraceRecord)) (*FrontEnd, http.Handler) {
	reg := obs.NewRegistry()
	fe := &FrontEnd{
		Backend:        be,
		Dimension:      testDim,
		MaxBatch:       4,
		DefaultTimeout: time.Second,
		MaxTimeout:     time.Second,
		Cache:          qcache.New(16),
		Tracer:         obs.NewTracer(obs.TracerConfig{OnTrace: onTrace}),
		CacheHist:      reg.Histogram("stage_seconds", "", obs.Labels{"stage": "cache_lookup"}),
	}
	mux := http.NewServeMux()
	fe.Routes(mux)
	return fe, mux
}

func serveJSON(h http.Handler, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return w
}

// TestFrontEndCacheRules is the one test of the cache contract both tiers
// inherit (DESIGN.md §10.4): a miss executes and stores, a hit does not
// execute and adds no probe accounting, an error reply is never stored,
// /v1/query and /v1/near never share an entry, and the generation is
// read before the backend runs — so a reply computed while a write lands
// is stored at the older epoch and never served after it.
func TestFrontEndCacheRules(t *testing.T) {
	point := EncodePoint(anns.NewPoint(make([]bool, testDim)))
	query := `{"point":"` + point + `"}`
	near := `{"point":"` + point + `","lambda":3}`

	be := &fakeBackend{reply: QueryResponse{Index: 7, Distance: 2, Rounds: 2, Probes: 9, MaxParallel: 5}}
	fe, h := newFakeFrontEnd(be, nil)

	first := serveJSON(h, "/v1/query", query)
	second := serveJSON(h, "/v1/query", query)
	if first.Code != 200 || second.Code != 200 || first.Body.String() != second.Body.String() {
		t.Fatalf("miss then hit: %d %q, %d %q", first.Code, first.Body, second.Code, second.Body)
	}
	if be.execs() != 1 {
		t.Errorf("backend executed %d times for a miss and a hit, want 1", be.execs())
	}
	if got := be.log[:2]; got[0] != "generation" || got[1] != "exec /v1/query" {
		t.Errorf("call order %v: the generation must be read before execution", got)
	}
	if q, p := fe.C.Queries.Load(), fe.C.Probes.Load(); q != 2 || p != 9 {
		t.Errorf("queries=%d probes=%d, want 2 served and only the miss's 9 probes", q, p)
	}

	// Same point under /v1/near is a different key.
	serveJSON(h, "/v1/near", near)
	if be.execs() != 2 || fe.C.Near.Load() != 1 {
		t.Errorf("near after query: execs=%d near=%d, want a second execution counted as near", be.execs(), fe.C.Near.Load())
	}

	// An error reply is counted, answered 200, and not stored.
	be2 := &fakeBackend{reply: QueryResponse{Index: -1, Distance: -1, Probes: 3, Error: "scheme failed"}}
	fe2, h2 := newFakeFrontEnd(be2, nil)
	serveJSON(h2, "/v1/query", query)
	serveJSON(h2, "/v1/query", query)
	if be2.execs() != 2 || fe2.C.Errors.Load() != 2 {
		t.Errorf("error reply: execs=%d errors=%d, want both requests executed and charged", be2.execs(), fe2.C.Errors.Load())
	}

	// A write lands mid-query: the reply is stored at the generation read
	// before execution, so the post-write lookup misses.
	be3 := &fakeBackend{reply: be.reply, bump: true}
	_, h3 := newFakeFrontEnd(be3, nil)
	serveJSON(h3, "/v1/query", query)
	serveJSON(h3, "/v1/query", query)
	if be3.execs() != 2 {
		t.Errorf("a reply computed across a write was served from cache (execs=%d, want 2)", be3.execs())
	}
}

// TestFrontEndBatchShedAccounting pins the shed-slot rule at its one
// definition: a slot the deadline cancelled before it ran is charged to
// neither queries nor errors.
func TestFrontEndBatchShedAccounting(t *testing.T) {
	point := EncodePoint(anns.NewPoint(make([]bool, testDim)))
	be := &fakeBackend{reply: QueryResponse{Index: 1, Distance: 1, Rounds: 1, Probes: 4, MaxParallel: 2}}
	fe, h := newFakeFrontEnd(be, nil)
	w := serveJSON(h, "/v1/batch", `{"points":["`+point+`","`+point+`","`+point+`"]}`)
	if w.Code != 200 {
		t.Fatalf("batch answered %d: %s", w.Code, w.Body)
	}
	if b, q, e, p := fe.C.Batches.Load(), fe.C.Queries.Load(), fe.C.Errors.Load(), fe.C.Probes.Load(); b != 1 || q != 2 || e != 0 || p != 8 {
		t.Errorf("batches=%d queries=%d errors=%d probes=%d, want 1/2/0/8 (the shed slot uncharged)", b, q, e, p)
	}
	for _, msg := range []string{"context deadline exceeded", "context canceled", "router: query shed by shard deadline: context canceled"} {
		if !ShedSlot(msg) {
			t.Errorf("ShedSlot(%q) = false", msg)
		}
	}
	for _, msg := range []string{"", "anns: query failed on every shard"} {
		if ShedSlot(msg) {
			t.Errorf("ShedSlot(%q) = true", msg)
		}
	}
}

// gatedSearcher blocks every query until released, signalling entry, so
// admission states are reached by events rather than sleeps.
type gatedSearcher struct {
	entered chan struct{}
	release chan struct{}
}

func (g gatedSearcher) Query(anns.Point) (anns.Result, error) {
	g.entered <- struct{}{}
	<-g.release
	return anns.Result{Index: 0, Distance: 0, Rounds: 1, Probes: 1, MaxParallel: 1}, nil
}
func (g gatedSearcher) QueryNear(anns.Point, float64) (anns.Result, error) { return g.Query(nil) }
func (g gatedSearcher) BatchQueryContext(context.Context, []anns.Point, int) []anns.BatchResult {
	return nil
}
func (g gatedSearcher) Len() int { return 2 }

// traceLog collects finished traces.
type traceLog struct {
	mu   sync.Mutex
	recs []obs.TraceRecord
}

func (l *traceLog) hook(r obs.TraceRecord) {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// only returns the single record with the given admit outcome.
func (l *traceLog) only(t *testing.T, outcome string) obs.TraceRecord {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var found []obs.TraceRecord
	for _, r := range l.recs {
		for _, sp := range r.Spans {
			if sp.Stage == "admit" && sp.Outcome == outcome {
				found = append(found, r)
			}
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d finished traces carry an admit/%s span, want exactly 1 (all: %+v)", len(found), outcome, l.recs)
	}
	return found[0]
}

// TestFailedRequestsFinishTheirTrace is the regression test for the
// unlogged-504 bug: a request that expires and a request that is
// rejected each finish exactly one trace whose spans name the outcome,
// carry the trace ID on the response, and — the counting rule this tier
// adopted — a query the worker finishes after its requester was answered
// 504 is not folded into probes/rounds.
func TestFailedRequestsFinishTheirTrace(t *testing.T) {
	g := gatedSearcher{entered: make(chan struct{}, 4), release: make(chan struct{})}
	var traces traceLog
	srv, err := New(g, Config{
		Dimension: testDim, Workers: 1, QueueDepth: 1,
		Trace: obs.TracerConfig{OnTrace: traces.hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	x := EncodePoint(anns.NewPoint(make([]bool, testDim)))

	// Request 1 occupies the only worker, then expires: 504.
	resp, body := post(t, hs.URL+"/v1/query", QueryRequest{Point: x, TimeoutMS: 30})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	<-g.entered
	rec := traces.only(t, "deadline")
	if rec.Route != "/v1/query" || resp.Header.Get(obs.TraceHeader) != rec.ID {
		t.Errorf("504 trace: route %q, id %q, response header %q", rec.Route, rec.ID, resp.Header.Get(obs.TraceHeader))
	}

	// The worker is still inside request 1. Request 2 fills the queue's one
	// slot; request 3 finds it full: 503.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, hs.URL+"/v1/query", QueryRequest{Point: x, TimeoutMS: 5000})
	}()
	for srv.Stats().QueueLen != 1 {
		time.Sleep(time.Millisecond)
	}
	resp, body = post(t, hs.URL+"/v1/query", QueryRequest{Point: x, TimeoutMS: 5000})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	rec = traces.only(t, "rejected")
	if resp.Header.Get(obs.TraceHeader) != rec.ID {
		t.Errorf("503 response header %q, trace id %q", resp.Header.Get(obs.TraceHeader), rec.ID)
	}

	close(g.release) // request 1's query finishes late; request 2 runs and is answered
	wg.Wait()
	srv.Close()
	snap := srv.Stats()
	if snap.DeadlineExceeded != 1 || snap.Rejected != 1 {
		t.Errorf("deadline_exceeded=%d rejected=%d, want 1 and 1", snap.DeadlineExceeded, snap.Rejected)
	}
	if snap.Queries != 1 || snap.Probes != 1 {
		t.Errorf("queries=%d probes=%d, want only the answered request counted (1, 1)", snap.Queries, snap.Probes)
	}
}

// TestTracedResponseCarriesTraceID: the server stamps X-Anns-Trace on a
// traced answer exactly as the router does, and returns its spans to an
// upstream that sent the header.
func TestTracedResponseCarriesTraceID(t *testing.T) {
	_, hs, inst := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/query",
		strings.NewReader(`{"point":"`+EncodePoint(inst.Queries[0].X)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "00000000feedbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "00000000feedbeef" {
		t.Errorf("response trace header = %q", got)
	}
	spans := obs.DecodeSpans(resp.Header.Get(obs.SpansHeader))
	stages := map[string]bool{}
	for _, sp := range spans {
		stages[sp.Stage] = true
	}
	if !stages["admission_wait"] || !stages["execute"] {
		t.Errorf("spans header %v lacks the admission_wait/execute stages", spans)
	}
}
