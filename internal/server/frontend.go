package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/anns"
	"repro/internal/cellprobe"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// The read front end (DESIGN.md §13): the one implementation of
// /v1/query, /v1/near and /v1/batch that both serving tiers mount. It
// owns everything the tiers used to spell out twice — body read, decode,
// validation, cache lookup and put, the deadline, the read-side counters,
// trace begin/finish and the answer encoding — and calls a Backend for
// the one stage that differs: execute. internal/server's backend is the
// admission queue and worker pool over a local index; internal/router's
// is the in-flight semaphore and the shard scatter. There is no third.

// Backend is the execute stage of a serving tier, plus the two readings
// the front end takes from it. A backend may assume its request is
// decoded and valid, that ctx carries the clamped deadline, and that tr
// (nil when untraced) accepts spans from any goroutine until the call
// returns. It answers with the reply — carrying a non-empty Error when
// the query ran and failed — or with a Failure when the request was never
// answered; it touches no read counter and writes nothing to the client.
type Backend interface {
	// Now is the clock spans, the cache_lookup histogram and trace
	// durations are read on (wall time, or the router's Clock).
	Now() time.Time
	// Generation is the result cache's invalidation epoch. The front end
	// reads it before ExecQuery, so a reply computed while a write lands
	// is stored at the older epoch and never served after it (§10.4).
	Generation() uint64
	ExecQuery(ctx context.Context, q ReadRequest, tr *obs.Trace) (QueryResponse, *Failure)
	ExecBatch(ctx context.Context, q ReadRequest, tr *obs.Trace) (BatchResponse, *Failure)
}

// ReadRequest is one decoded, validated read. Path and Body are the
// request as it arrived (the router forwards them verbatim: both tiers
// speak one wire schema); Point and Lambda describe a /v1/query (Lambda
// 0) or /v1/near (Lambda > 0), Points a /v1/batch.
type ReadRequest struct {
	Path   string
	Body   []byte
	Point  anns.Point
	Lambda float64
	Points []anns.Point
}

// Failure is a request a backend could not answer: the HTTP status and
// ErrorResponse message the client gets, and the outcome its admit span
// carries ("rejected", "deadline", "panic").
type Failure struct {
	Status  int
	Message string
	Outcome string
}

// Expired returns the 504 Failure for a request whose deadline passed,
// or nil while ctx is live.
func Expired(ctx context.Context) *Failure {
	if err := ctx.Err(); err != nil {
		return &Failure{Status: http.StatusGatewayTimeout, Message: err.Error(), Outcome: "deadline"}
	}
	return nil
}

// ShedSlot reports whether a batch slot's error text says a deadline
// cancelled the slot before it ran. Shed slots are load shedding, not
// query failures: they are charged to neither queries nor errors, so
// error_rate stays the scheme's failure probability. The text form
// covers both an in-process BatchResult.Err and a shard's wire error.
func ShedSlot(msg string) bool {
	return strings.Contains(msg, context.Canceled.Error()) ||
		strings.Contains(msg, context.DeadlineExceeded.Error())
}

// ReadCounters is the read-side counter block of a serving tier,
// exported by both tiers' /statsz and /metricsz.
type ReadCounters struct {
	Queries, Near, Batches             atomic.Int64
	Errors, Rejected, DeadlineExceeded atomic.Int64
	Probes, Rounds                     atomic.Int64
	MaxRounds, MaxParallel             atomic.Int64
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// record folds one answered query into the counters. A query failed
// exactly when its reply carries a non-empty error.
func (c *ReadCounters) record(r QueryResponse) {
	c.Probes.Add(int64(r.Probes))
	c.Rounds.Add(int64(r.Rounds))
	atomicMax(&c.MaxRounds, int64(r.Rounds))
	atomicMax(&c.MaxParallel, int64(r.MaxParallel))
	if r.Error != "" {
		c.Errors.Add(1)
	}
}

// Stats snapshots the counters for a tier that has been up for up.
func (c *ReadCounters) Stats(up time.Duration) ReadStats {
	out := ReadStats{
		UptimeMS:         up.Milliseconds(),
		Queries:          c.Queries.Load(),
		Batches:          c.Batches.Load(),
		Near:             c.Near.Load(),
		Errors:           c.Errors.Load(),
		Rejected:         c.Rejected.Load(),
		DeadlineExceeded: c.DeadlineExceeded.Load(),
		Probes:           c.Probes.Load(),
		Rounds:           c.Rounds.Load(),
		MaxRounds:        c.MaxRounds.Load(),
		MaxParallel:      c.MaxParallel.Load(),
	}
	served := float64(out.Queries + out.Near)
	if sec := up.Seconds(); sec > 0 {
		out.QPS = served / sec
	}
	if served > 0 {
		out.ErrorRate = float64(out.Errors) / served
	}
	return out
}

// FrontEnd serves the read endpoints of one tier. The owning tier fills
// the fields once at construction and mounts it with Routes.
type FrontEnd struct {
	Backend                    Backend
	Dimension, MaxBatch        int
	DefaultTimeout, MaxTimeout time.Duration
	Cache                      *qcache.Cache // nil when caching is off
	Tracer                     *obs.Tracer
	CacheHist                  *obs.Histogram // the cache_lookup stage
	C                          ReadCounters

	httpMu sync.Mutex
	httpS  *http.Server
}

// Routes mounts the three read endpoints on mux.
func (fe *FrontEnd) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) { fe.handleQuery(w, r, false) })
	mux.HandleFunc("POST /v1/near", func(w http.ResponseWriter, r *http.Request) { fe.handleQuery(w, r, true) })
	mux.HandleFunc("POST /v1/batch", fe.handleBatch)
}

// ListenAndServe serves h (the tier's mux, read endpoints included) on
// addr until Shutdown or a listener error.
func (fe *FrontEnd) ListenAndServe(addr string, h http.Handler) error {
	hs := &http.Server{Addr: addr, Handler: h}
	fe.httpMu.Lock()
	fe.httpS = hs
	fe.httpMu.Unlock()
	err := hs.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown closes the listener to new requests and waits (up to ctx) for
// in-flight HTTP requests to finish. The tier stops its own machinery
// afterwards.
func (fe *FrontEnd) Shutdown(ctx context.Context) error {
	fe.httpMu.Lock()
	hs := fe.httpS
	fe.httpMu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

// ReadBody reads a request body under the MaxBodyBytes cap and decodes
// it into v, writing the 400 itself on failure. Every JSON endpoint of
// both tiers decodes through it.
func ReadBody(w http.ResponseWriter, r *http.Request, v any) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		badRequest(w, fmt.Sprintf("bad request body: %v", err))
		return nil, false
	}
	return body, true
}

func badRequest(w http.ResponseWriter, msg string) {
	WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: msg})
}

// WriteFailure counts f against the admission counters and writes it.
func (fe *FrontEnd) WriteFailure(w http.ResponseWriter, f *Failure) {
	switch f.Status {
	case http.StatusServiceUnavailable:
		fe.C.Rejected.Add(1)
	case http.StatusGatewayTimeout:
		fe.C.DeadlineExceeded.Add(1)
	}
	WriteJSON(w, f.Status, ErrorResponse{Error: f.Message})
}

// beginTrace starts a trace for one decoded request, rooted at its
// arrival instant: an X-Anns-Trace from upstream (the router, a test) is
// adopted verbatim so spans flow back to the tier assembling the
// timeline, otherwise the tier's own tracer mints one when it is on.
func (fe *FrontEnd) beginTrace(r *http.Request, start time.Time) *obs.Trace {
	if id := r.Header.Get(obs.TraceHeader); id != "" {
		return obs.NewTrace(id, start)
	}
	return fe.Tracer.Begin("", start)
}

// finishTrace closes the trace of a request that got past decoding,
// whatever its status: a failure gets an admit span naming its outcome,
// the trace ID is stamped on the response, the span timeline is echoed to
// an upstream that sent X-Anns-Trace, and the trace is emitted — so a 504
// reaches the slow-query log. Must run before the body is written.
func (fe *FrontEnd) finishTrace(w http.ResponseWriter, r *http.Request, tr *obs.Trace, start time.Time, f *Failure) {
	if tr == nil {
		return
	}
	dur := fe.Backend.Now().Sub(start)
	if f != nil {
		tr.Add("admit", "", f.Outcome, start, dur)
	}
	w.Header().Set(obs.TraceHeader, tr.ID())
	if r.Header.Get(obs.TraceHeader) != "" {
		if enc := obs.EncodeSpans(tr.Spans()); enc != "" {
			w.Header().Set(obs.SpansHeader, enc)
		}
	}
	fe.Tracer.Finish(tr, r.URL.Path, dur)
}

// answer ends a decoded request: the trace first, then the failure or
// the reply.
func (fe *FrontEnd) answer(w http.ResponseWriter, r *http.Request, tr *obs.Trace, start time.Time, f *Failure, resp any) {
	fe.finishTrace(w, r, tr, start, f)
	if f != nil {
		fe.WriteFailure(w, f)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// lookup is the cache read plus its stage accounting: the latency lands
// in the cache_lookup histogram and, when traced, a span. It also returns
// the generation to stamp on a miss's eventual Put.
func (fe *FrontEnd) lookup(key cellprobe.Addr, tr *obs.Trace) (QueryResponse, uint64, bool) {
	if fe.Cache == nil {
		return QueryResponse{}, 0, false
	}
	gen := fe.Backend.Generation()
	cStart := fe.Backend.Now()
	v, ok := fe.Cache.Get(key, gen)
	d := fe.Backend.Now().Sub(cStart)
	fe.CacheHist.Observe(d)
	if !ok {
		tr.Add("cache_lookup", "", "miss", cStart, d)
		return QueryResponse{}, gen, false
	}
	tr.Add("cache_lookup", "", "hit", cStart, d)
	return v.(QueryResponse), gen, true
}

// handleQuery serves /v1/query and, with near set, /v1/near.
func (fe *FrontEnd) handleQuery(w http.ResponseWriter, r *http.Request, near bool) {
	start := fe.Backend.Now()
	var req NearRequest
	body, ok := ReadBody(w, r, &req)
	if !ok {
		return
	}
	lambda := 0.0 // /v1/query
	if near {
		if lambda = req.Lambda; lambda <= 0 {
			badRequest(w, "lambda must be positive")
			return
		}
	}
	x, err := DecodePoint(req.Point, fe.Dimension)
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	tr := fe.beginTrace(r, start)
	served := &fe.C.Queries
	key := QueryCacheKey(x)
	if near {
		served, key = &fe.C.Near, NearCacheKey(x, lambda)
	}
	resp, gen, hit := fe.lookup(key, tr)
	if hit {
		// A hit bypasses the backend entirely; it counts as served but adds
		// no probe/round accounting — no cells were probed.
		served.Add(1)
		fe.answer(w, r, tr, start, nil, resp)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), clampTimeout(req.TimeoutMS, fe.DefaultTimeout, fe.MaxTimeout))
	defer cancel()
	resp, fail := fe.Backend.ExecQuery(ctx, ReadRequest{Path: r.URL.Path, Body: body, Point: x, Lambda: lambda}, tr)
	if fail == nil {
		served.Add(1)
		fe.C.record(resp)
		if resp.Error == "" { // errors may be transient; /v1/near's NO is an answer
			fe.Cache.Put(key, gen, resp)
		}
	}
	fe.answer(w, r, tr, start, fail, resp)
}

func (fe *FrontEnd) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := fe.Backend.Now()
	var req BatchRequest
	body, ok := ReadBody(w, r, &req)
	if !ok {
		return
	}
	if len(req.Points) == 0 {
		badRequest(w, "empty points")
		return
	}
	if len(req.Points) > fe.MaxBatch {
		WriteJSON(w, http.StatusRequestEntityTooLarge,
			ErrorResponse{Error: fmt.Sprintf("batch of %d exceeds limit %d", len(req.Points), fe.MaxBatch)})
		return
	}
	xs := make([]anns.Point, len(req.Points))
	for i, enc := range req.Points {
		x, err := DecodePoint(enc, fe.Dimension)
		if err != nil {
			badRequest(w, fmt.Sprintf("point %d: %v", i, err))
			return
		}
		xs[i] = x
	}
	tr := fe.beginTrace(r, start)
	ctx, cancel := context.WithTimeout(r.Context(), clampTimeout(req.TimeoutMS, fe.DefaultTimeout, fe.MaxTimeout))
	defer cancel()
	resp, fail := fe.Backend.ExecBatch(ctx, ReadRequest{Path: r.URL.Path, Body: body, Points: xs}, tr)
	if fail == nil {
		fe.C.Batches.Add(1)
		executed := int64(0)
		for _, qr := range resp.Results {
			if !ShedSlot(qr.Error) {
				executed++
				fe.C.record(qr)
			}
		}
		fe.C.Queries.Add(executed)
	}
	fe.answer(w, r, tr, start, fail, resp)
}
