package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/anns"
	"repro/internal/obs"
	"repro/internal/server"
)

// The cross-tier conformance table: both tiers mount the one read front
// end (server.FrontEnd), so a request that never reaches execution, or
// whose execution is refused, must be answered identically by a shard
// server and by a router — status, ErrorResponse schema, trace headers —
// and every refused request must finish exactly one trace whose admit
// span names the outcome (the slowest requests are the ones an operator
// most needs in the slow-query log).

const conformanceTrace = "00000000c0ffee00"

// confTier is one serving tier with a backend that blocks until the test
// ends, so admission states are reached by events, not sleeps.
type confTier struct {
	name string
	h    http.Handler
	// saturate fills the tier's admission (worker + queue slot, or the
	// in-flight semaphore) with blocked requests.
	saturate func()
	mu       sync.Mutex
	recs     []obs.TraceRecord
}

func (c *confTier) hook(r obs.TraceRecord) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
}

// admitRecords counts finished traces carrying an admit/outcome span.
func (c *confTier) admitRecords(outcome string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.recs {
		for _, sp := range r.Spans {
			if sp.Stage == "admit" && sp.Outcome == outcome {
				n++
			}
		}
	}
	return n
}

func (c *confTier) do(path string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.Header.Set(obs.TraceHeader, conformanceTrace)
	w := httptest.NewRecorder()
	c.h.ServeHTTP(w, req)
	return w
}

// background issues a request that blocks in the backend until the gate
// opens at cleanup.
func (c *confTier) background(wg *sync.WaitGroup, point string) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.do("/v1/query", strings.NewReader(`{"point":"`+point+`","timeout_ms":20000}`))
	}()
}

// blockedSearcher is the shard tier's gated index: every query signals
// entry (when anyone listens) and blocks until the gate opens.
type blockedSearcher struct{ gate, entered chan struct{} }

func (b blockedSearcher) Query(anns.Point) (anns.Result, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.gate
	return anns.Result{}, nil
}
func (b blockedSearcher) QueryNear(anns.Point, float64) (anns.Result, error) { return b.Query(nil) }
func (b blockedSearcher) BatchQueryContext(_ context.Context, xs []anns.Point, _ int) []anns.BatchResult {
	<-b.gate
	return make([]anns.BatchResult, len(xs))
}
func (b blockedSearcher) Len() int { return 2 }

const (
	confMaxBatch   = 3
	confMaxTimeout = 40 * time.Millisecond
)

func newServerTier(t *testing.T, point string) *confTier {
	t.Helper()
	c := &confTier{name: "server"}
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	srv, err := server.New(blockedSearcher{gate, entered}, server.Config{
		Dimension: testDim, Workers: 1, QueueDepth: 1,
		MaxBatch: confMaxBatch, MaxTimeout: 30 * time.Second,
		Trace: obs.TracerConfig{OnTrace: c.hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		close(gate)
		wg.Wait()
		srv.Close()
	})
	c.h = srv.Handler()
	c.saturate = func() {
		// One request on the only worker, then one in the queue's only slot.
		c.background(&wg, point)
		<-entered
		c.background(&wg, point)
		for srv.Stats().QueueLen != 1 {
			time.Sleep(time.Millisecond)
		}
	}
	return c
}

// gatedStub is a shard replica that is healthy but never answers a query
// before the gate opens (or the router abandons the attempt).
func gatedStub(t *testing.T, gate chan struct{}) *httptest.Server {
	t.Helper()
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			server.WriteJSON(w, http.StatusOK, server.Health{Status: "ok", Dim: testDim, N: 2})
			return
		}
		// Drain the body first: with it unread the server cannot see the
		// router abandon the attempt.
		io.Copy(io.Discard, r.Body)
		select {
		case <-gate:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(stub.Close)
	return stub
}

func newRouterTier(t *testing.T, point string) *confTier {
	t.Helper()
	c := &confTier{name: "router"}
	gate := make(chan struct{})
	stub := gatedStub(t, gate)
	rt := newRouter(t, Config{
		Dimension: testDim, N: 4, Replicas: [][]string{{stub.URL}, {stub.URL}},
		MaxInFlight: 1, MaxBatch: confMaxBatch, MaxTimeout: 30 * time.Second,
		ProbeInterval: time.Hour,
		Trace:         obs.TracerConfig{OnTrace: c.hook},
	})
	var wg sync.WaitGroup
	t.Cleanup(func() {
		close(gate)
		wg.Wait()
	})
	c.h = rt.Handler()
	c.saturate = func() {
		c.background(&wg, point)
		for rt.Stats().InFlight != 1 {
			time.Sleep(time.Millisecond)
		}
	}
	return c
}

// confOutcome is what the table compares across tiers.
type confOutcome struct {
	status     int
	message    string
	traceID    string // X-Anns-Trace on the response
	admitSpan  string // outcome of the admit span in X-Anns-Spans
	admitTrace int    // finished traces carrying that admit span
}

func TestCrossTierConformance(t *testing.T) {
	point := server.EncodePoint(make([]uint64, testDim/64))
	short := server.EncodePoint(make([]uint64, testDim/64))[:8]
	q := func(fields string) string { return `{"point":"` + point + `"` + fields + `}` }
	batch := func(n int) string {
		return `{"points":["` + strings.Repeat(point+`","`, n-1) + point + `"]}`
	}
	rows := []struct {
		name, path string
		body       func() io.Reader
		saturate   bool
		status     int
		outcome    string // admit span outcome; "" when the request never got past decoding
		sameText   bool   // the two tiers word the error identically
	}{
		{name: "bad JSON", path: "/v1/query", body: func() io.Reader { return strings.NewReader(`{not json`) }, status: 400, sameText: true},
		{name: "bad base64", path: "/v1/query", body: func() io.Reader { return strings.NewReader(`{"point":"@@@@"}`) }, status: 400, sameText: true},
		{name: "wrong-dimension point", path: "/v1/query", body: func() io.Reader { return strings.NewReader(`{"point":"` + short + `"}`) }, status: 400, sameText: true},
		{name: "lambda <= 0", path: "/v1/near", body: func() io.Reader { return strings.NewReader(q(`,"lambda":0`)) }, status: 400, sameText: true},
		{name: "empty batch", path: "/v1/batch", body: func() io.Reader { return strings.NewReader(`{"points":[]}`) }, status: 400, sameText: true},
		{name: "bad point in batch", path: "/v1/batch", body: func() io.Reader { return strings.NewReader(`{"points":["` + point + `","@@"]}`) }, status: 400, sameText: true},
		{name: "batch > MaxBatch", path: "/v1/batch", body: func() io.Reader { return strings.NewReader(batch(confMaxBatch + 1)) }, status: 413, sameText: true},
		{name: "body > MaxBodyBytes", path: "/v1/query", body: func() io.Reader {
			return io.LimitReader(spaces{}, server.MaxBodyBytes+1)
		}, status: 400, sameText: true},
		{name: "expired deadline", path: "/v1/query", body: func() io.Reader { return strings.NewReader(q(`,"timeout_ms":10`)) }, status: 504, outcome: "deadline", sameText: true},
		{name: "expired deadline (near)", path: "/v1/near", body: func() io.Reader { return strings.NewReader(q(`,"lambda":2,"timeout_ms":10`)) }, status: 504, outcome: "deadline", sameText: true},
		{name: "expired deadline (batch)", path: "/v1/batch", body: func() io.Reader {
			return strings.NewReader(`{"points":["` + point + `"],"timeout_ms":10}`)
		}, status: 504, outcome: "deadline", sameText: true},
		{name: "full admission", path: "/v1/query", body: func() io.Reader { return strings.NewReader(q(`,"timeout_ms":20000`)) }, saturate: true, status: 503, outcome: "rejected"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var got [2]confOutcome
			for i, tier := range []*confTier{newServerTier(t, point), newRouterTier(t, point)} {
				if row.saturate {
					tier.saturate()
				}
				before := tier.admitRecords(row.outcome)
				w := tier.do(row.path, row.body())
				var er server.ErrorResponse
				if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
					t.Fatalf("%s: body %q is not an ErrorResponse", tier.name, w.Body)
				}
				if ct := w.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s: content type %q", tier.name, ct)
				}
				got[i] = confOutcome{status: w.Code, message: er.Error, traceID: w.Header().Get(obs.TraceHeader)}
				for _, sp := range obs.DecodeSpans(w.Header().Get(obs.SpansHeader)) {
					if sp.Stage == "admit" {
						got[i].admitSpan = sp.Outcome
					}
				}
				got[i].admitTrace = tier.admitRecords(row.outcome) - before
			}
			srv, rt := got[0], got[1]
			if !row.sameText {
				srv.message, rt.message = "", ""
			}
			if srv != rt {
				t.Errorf("tiers disagree:\n server %+v\n router %+v", srv, rt)
			}
			want := confOutcome{status: row.status, admitSpan: row.outcome}
			if row.outcome != "" {
				// Past decoding: traced whatever the status, exactly once.
				want.traceID, want.admitTrace = conformanceTrace, 1
			}
			srv.message = ""
			if srv != want {
				t.Errorf("got %+v, want %+v", srv, want)
			}
		})
	}
}

// spaces is an endless JSON-whitespace body.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestTimeoutClampConformance: a timeout_ms above MaxTimeout is clamped
// by both tiers — the request expires at the cap, not at the asked-for
// hour.
func TestTimeoutClampConformance(t *testing.T) {
	point := server.EncodePoint(make([]uint64, testDim/64))
	gate := make(chan struct{})
	srv, err := server.New(blockedSearcher{gate: gate}, server.Config{Dimension: testDim, Workers: 1, MaxTimeout: confMaxTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	stub := gatedStub(t, gate)
	rt := newRouter(t, Config{
		Dimension: testDim, N: 2, Replicas: [][]string{{stub.URL}},
		MaxTimeout: confMaxTimeout, ProbeInterval: time.Hour,
	})
	t.Cleanup(func() { close(gate) }) // registered last: opens before anything closes
	for name, h := range map[string]http.Handler{"server": srv.Handler(), "router": rt.Handler()} {
		start := time.Now()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query",
			strings.NewReader(`{"point":"`+point+`","timeout_ms":3600000}`)))
		if w.Code != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d, want 504 at the clamped deadline (%s)", name, w.Code, w.Body)
		}
		if el := time.Since(start); el < confMaxTimeout || el > 10*time.Second {
			t.Errorf("%s: answered after %v, want the %v cap", name, el, confMaxTimeout)
		}
	}
}
