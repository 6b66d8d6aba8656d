package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/anns"
	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/workload"
)

const testDim = 128

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *workload.Instance) {
	t.Helper()
	r := rng.New(31)
	inst := workload.PlantedNN(r, testDim, 40, 8, 6)
	pts := make([]anns.Point, len(inst.DB))
	copy(pts, inst.DB)
	idx, err := anns.BuildSharded(pts, 2, anns.Options{Dimension: testDim, Rounds: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dimension == 0 {
		cfg.Dimension = testDim
	}
	srv, err := New(idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs, inst
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestQueryEndpoint(t *testing.T) {
	_, hs, inst := newTestServer(t, Config{})
	// Query with a database point itself: the answer must be exact.
	resp, body := post(t, hs.URL+"/v1/query", QueryRequest{Point: EncodePoint(inst.DB[3])})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Error != "" {
		t.Skipf("query failed (allowed with scheme probability): %s", qr.Error)
	}
	if qr.Index < 0 || qr.Probes < 1 || qr.Rounds < 1 || qr.MaxParallel < 1 {
		t.Errorf("implausible answer: %+v", qr)
	}
}

func TestQueryMalformed(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"not json", "{nope"},
		{"bad base64", `{"point":"!!!"}`},
		{"wrong dimension", `{"point":"AAAA"}`},
		{"empty", `{}`},
	}
	for _, c := range cases {
		resp, err := http.Post(hs.URL+"/v1/query", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}
	// Wrong method gets rejected by the mux.
	resp, err := http.Get(hs.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query: status %d, want 405", resp.StatusCode)
	}
}

func TestNearEndpoint(t *testing.T) {
	_, hs, inst := newTestServer(t, Config{})
	resp, body := post(t, hs.URL+"/v1/near", NearRequest{Point: EncodePoint(inst.DB[0]), Lambda: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	// A database point is at distance 0 <= lambda; expect YES (whp).
	if qr.Error == "" && qr.Index < 0 {
		t.Logf("near said NO for a member point (allowed with scheme probability)")
	}

	resp, _ = post(t, hs.URL+"/v1/near", NearRequest{Point: EncodePoint(inst.DB[0]), Lambda: 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("lambda=0: status %d, want 400", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, hs, inst := newTestServer(t, Config{MaxBatch: 4})
	points := []string{
		EncodePoint(inst.Queries[0].X),
		EncodePoint(inst.Queries[1].X),
		EncodePoint(inst.Queries[2].X),
	}
	resp, body := post(t, hs.URL+"/v1/batch", BatchRequest{Points: points})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("%d results, want 3", len(br.Results))
	}
	for i, r := range br.Results {
		if r.Error == "" && (r.Probes < 1 || r.Rounds < 1) {
			t.Errorf("result %d: no accounting: %+v", i, r)
		}
	}

	resp, _ = post(t, hs.URL+"/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	five := []string{points[0], points[0], points[0], points[0], points[0]}
	resp, _ = post(t, hs.URL+"/v1/batch", BatchRequest{Points: five})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", resp.StatusCode)
	}
	resp, _ = post(t, hs.URL+"/v1/batch", BatchRequest{Points: []string{"@@"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad point in batch: status %d, want 400", resp.StatusCode)
	}
}

// slowSearcher blocks each query, for deadline and admission tests.
type slowSearcher struct {
	d time.Duration
}

func (s slowSearcher) Query(anns.Point) (anns.Result, error) {
	time.Sleep(s.d)
	return anns.Result{Index: 0, Distance: 0, Rounds: 1, Probes: 1, MaxParallel: 1}, nil
}

func (s slowSearcher) QueryNear(anns.Point, float64) (anns.Result, error) {
	return s.Query(nil)
}

func (s slowSearcher) BatchQueryContext(ctx context.Context, xs []anns.Point, workers int) []anns.BatchResult {
	out := make([]anns.BatchResult, len(xs))
	for i := range out {
		res, err := s.Query(nil)
		out[i] = anns.BatchResult{Result: res, Err: err}
	}
	return out
}

func (s slowSearcher) Len() int { return 2 }

func TestDeadlineExceeded(t *testing.T) {
	srv, err := New(slowSearcher{d: 300 * time.Millisecond}, Config{
		Dimension: testDim, Workers: 1, QueueDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()

	x := anns.NewPoint(make([]bool, testDim))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupy the single worker
		defer wg.Done()
		post(t, hs.URL+"/v1/query", QueryRequest{Point: EncodePoint(x), TimeoutMS: 2000})
	}()
	time.Sleep(50 * time.Millisecond)
	resp, body := post(t, hs.URL+"/v1/query", QueryRequest{Point: EncodePoint(x), TimeoutMS: 20})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	wg.Wait()
	if snap := srv.Stats(); snap.DeadlineExceeded < 1 {
		t.Errorf("deadline_exceeded = %d, want >= 1", snap.DeadlineExceeded)
	}
}

func TestQueueFull(t *testing.T) {
	srv, err := New(slowSearcher{d: 400 * time.Millisecond}, Config{
		Dimension: testDim, Workers: 1, QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()

	x := EncodePoint(anns.NewPoint(make([]bool, testDim)))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // fill worker + queue slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, hs.URL+"/v1/query", QueryRequest{Point: x, TimeoutMS: 3000})
		}()
		time.Sleep(50 * time.Millisecond)
	}
	resp, body := post(t, hs.URL+"/v1/query", QueryRequest{Point: x, TimeoutMS: 3000})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	wg.Wait()
	if snap := srv.Stats(); snap.Rejected < 1 {
		t.Errorf("rejected = %d, want >= 1", snap.Rejected)
	}
}

func TestHealthAndStats(t *testing.T) {
	srv, hs, inst := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || h.N != len(inst.DB) || h.Dim != testDim || h.Shards != 2 {
		t.Errorf("health %+v", h)
	}

	for i := 0; i < 4; i++ {
		post(t, hs.URL+"/v1/query", QueryRequest{Point: EncodePoint(inst.Queries[i].X)})
	}
	resp, err = http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if snap.Queries != 4 {
		t.Errorf("queries = %d, want 4", snap.Queries)
	}
	if snap.Probes < 4 || snap.MaxParallel < 1 {
		t.Errorf("accounting missing: %+v", snap)
	}
	if got := srv.Stats(); got.Queries != snap.Queries {
		t.Errorf("Stats() and /statsz disagree: %d vs %d", got.Queries, snap.Queries)
	}
}

func TestPointCodecRoundTrip(t *testing.T) {
	r := rng.New(9)
	for _, d := range []int{2, 63, 64, 65, 300} {
		bits := make([]bool, d)
		for i := range bits {
			bits[i] = r.Intn(2) == 1
		}
		p := anns.NewPoint(bits)
		got, err := DecodePoint(EncodePoint(p), d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		for i := range bits {
			if got.Get(i) != bits[i] {
				t.Fatalf("d=%d: bit %d flipped in transit", d, i)
			}
		}
	}
	if _, err := DecodePoint("AAAA", 300); err == nil {
		t.Error("decoded a too-short point")
	}
	if _, err := DecodePoint("!not-base64!", 8); err == nil {
		t.Error("decoded invalid base64")
	}
}

func TestStatsSchemaMatchesWire(t *testing.T) {
	// annsload, annsctl inspect and the CI smokes read this schema by
	// name; pin the field names.
	raw, err := json.Marshal(StatsSnapshot{})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"queries", "errors", "probes", "rounds", "max_rounds", "max_parallel",
		"qps", "error_rate", "rejected", "deadline_exceeded", "scan_kernel",
	} {
		if !bytes.Contains(raw, []byte(fmt.Sprintf("%q", field))) {
			t.Errorf("stats schema lost field %q: %s", field, raw)
		}
	}
}

// panicSearcher simulates an index bug: the pool must survive it.
type panicSearcher struct{}

func (panicSearcher) Query(anns.Point) (anns.Result, error)              { panic("index bug") }
func (panicSearcher) QueryNear(anns.Point, float64) (anns.Result, error) { panic("index bug") }
func (panicSearcher) BatchQueryContext(context.Context, []anns.Point, int) []anns.BatchResult {
	panic("index bug")
}
func (panicSearcher) Len() int { return 2 }

func TestWorkerSurvivesPanic(t *testing.T) {
	srv, err := New(panicSearcher{}, Config{Dimension: testDim, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()

	x := EncodePoint(anns.NewPoint(make([]bool, testDim)))
	for i := 0; i < 3; i++ { // repeat: a dead worker would hang request 2+
		resp, body := post(t, hs.URL+"/v1/query", QueryRequest{Point: x, TimeoutMS: 2000})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d (%s), want 500", i, resp.StatusCode, body)
		}
	}
	if snap := srv.Stats(); snap.Errors < 3 {
		t.Errorf("errors = %d, want >= 3", snap.Errors)
	}
}

// TestScanKernelReported: /statsz and /metricsz both say which table-scan
// body this process runs, and agree with the kernel package.
func TestScanKernelReported(t *testing.T) {
	srv, hs, _ := newTestServer(t, Config{Workers: 1})
	impl := bitvec.ScanKernel()
	if impl != "avx512" && impl != "portable" {
		t.Fatalf("bitvec.ScanKernel() = %q", impl)
	}
	if got := srv.Stats().ScanKernel; got != impl {
		t.Errorf("/statsz scan_kernel = %q, the kernel package says %q", got, impl)
	}
	resp, err := http.Get(hs.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("anns_scan_kernel_info{impl=%q} 1", impl); !bytes.Contains(body, []byte(want)) {
		t.Errorf("/metricsz lacks the series %s", want)
	}
}

// shortPointSearcher is a real index whose batches receive their points one
// word short: the engine panics, and it does so inside BatchQueryContext's
// own worker goroutines (a batch of more than one chunk runs on a pool).
type shortPointSearcher struct{ *anns.Index }

func (s shortPointSearcher) BatchQueryContext(ctx context.Context, xs []anns.Point, workers int) []anns.BatchResult {
	short := make([]anns.Point, len(xs))
	for i, x := range xs {
		short[i] = x[:len(x)-1]
	}
	return s.Index.BatchQueryContext(ctx, short, workers)
}

// TestBatchPanicAnswers500: a panic on a goroutine the batch spawned used
// to be outside every recover and took the process — here, the test
// binary — down with all in-flight requests. It must come back to the
// admitted task's goroutine, where the one recovery answers 500 and counts
// an error, and the server must go on serving.
func TestBatchPanicAnswers500(t *testing.T) {
	inst := workload.PlantedNN(rng.New(31), testDim, 40, 8, 6)
	idx, err := anns.Build(inst.DB, anns.Options{Dimension: testDim, Rounds: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(shortPointSearcher{idx}, Config{Dimension: testDim, Workers: 1, BatchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	points := make([]string, 20) // three chunks
	for i := range points {
		points[i] = EncodePoint(inst.Queries[i%len(inst.Queries)].X)
	}
	before := srv.Stats().Errors
	resp, body := post(t, hs.URL+"/v1/batch", BatchRequest{Points: points, TimeoutMS: 2000})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("batch over a panicking index: status %d (%s), want 500", resp.StatusCode, body)
	}
	if got := srv.Stats().Errors; got != before+1 {
		t.Errorf("errors = %d, want %d", got, before+1)
	}
	resp, body = post(t, hs.URL+"/v1/query", QueryRequest{Point: points[0], TimeoutMS: 2000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after the panic: status %d (%s), want 200", resp.StatusCode, body)
	}
}

func TestDecodePointExactLength(t *testing.T) {
	// 24 bytes encode d in (128, 192]; a 192-bit image must not decode
	// as a 128-bit point.
	img := base64.StdEncoding.EncodeToString(make([]byte, 24))
	if _, err := DecodePoint(img, 128); err == nil {
		t.Error("oversized point image silently accepted")
	}
	if _, err := DecodePoint(img, 192); err != nil {
		t.Errorf("exact-size image rejected: %v", err)
	}
}
