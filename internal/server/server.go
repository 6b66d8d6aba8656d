// Package server is the query-serving layer of the reproduction: an HTTP
// front end over an anns.Index or anns.ShardedIndex with a bounded
// admission queue, a fixed worker pool, per-request deadlines, and atomic
// serving metrics.
//
// The three-layer serving subsystem (see README.md):
//
//	anns.ShardedIndex   sharding: fan-out + Hamming-distance merge
//	internal/server     admission queue, workers, deadlines, /statsz
//	cmd/annsd+annsload  process entry points and load harness
//
// Endpoints: POST /v1/query, POST /v1/batch, POST /v1/near,
// GET /healthz, GET /statsz. Bodies and answers are JSON (wire.go).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/anns"
	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// Searcher is the index surface the server needs; both *anns.Index and
// *anns.ShardedIndex satisfy it.
type Searcher interface {
	Query(x anns.Point) (anns.Result, error)
	QueryNear(x anns.Point, lambda float64) (anns.Result, error)
	BatchQueryContext(ctx context.Context, xs []anns.Point, workers int) []anns.BatchResult
	Len() int
}

// scratchSearcher is the optional zero-allocation query surface: each pool
// worker owns one anns.Scratch for its lifetime and threads it through
// every single-point query it serves, so steady-state request execution
// reuses one pooled context per worker instead of per call. Both
// *anns.Index and *anns.ShardedIndex implement it.
type scratchSearcher interface {
	QueryScratch(x anns.Point, sc *anns.Scratch) (anns.Result, error)
	QueryNearScratch(x anns.Point, lambda float64, sc *anns.Scratch) (anns.Result, error)
}

// query runs one point query, preferring the worker's scratch path.
func (s *Server) query(sc *anns.Scratch, x anns.Point) (anns.Result, error) {
	if ss, ok := s.idx.(scratchSearcher); ok && sc != nil {
		return ss.QueryScratch(x, sc)
	}
	return s.idx.Query(x)
}

// queryNear is the λ-ANNS counterpart of query.
func (s *Server) queryNear(sc *anns.Scratch, x anns.Point, lambda float64) (anns.Result, error) {
	if ss, ok := s.idx.(scratchSearcher); ok && sc != nil {
		return ss.QueryNearScratch(x, lambda, sc)
	}
	return s.idx.QueryNear(x, lambda)
}

// Config tunes the serving layer. Zero values select the defaults noted
// on each field.
type Config struct {
	// Dimension is the Hamming dimension queries must decode to. Required.
	Dimension int
	// Workers is the request worker pool size. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; a request arriving with the
	// queue full is rejected with 503. Default 1024.
	QueueDepth int
	// BatchWorkers is the intra-batch pool each /v1/batch request uses.
	// Default GOMAXPROCS.
	BatchWorkers int
	// MaxBatch caps len(points) of one /v1/batch request. Default 4096.
	MaxBatch int
	// DefaultTimeout is the per-request deadline when the request does not
	// set timeout_ms. Default 2s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines. Default 30s.
	MaxTimeout time.Duration
	// CacheEntries bounds the query-result cache (cache.go); 0 (the
	// default) disables caching. Hits are answered without entering the
	// admission queue and invalidate by index generation, so enabling the
	// cache never changes an answer — only how it is computed.
	CacheEntries int
	// Index describes where the served index came from (built in-process
	// or loaded from a snapshot); surfaced verbatim on /statsz.
	Index IndexInfo
	// Trace configures request tracing and the slow-query log (obs). The
	// zero value disables emission; incoming X-Anns-Trace headers are
	// still honored so an upstream router always gets its spans back.
	Trace obs.TracerConfig
}

// IndexInfo is the provenance of the served index: the build→snapshot→
// serve lifecycle's answer to "what is this process serving and how fast
// did it come up".
type IndexInfo struct {
	// Source is "built" (preprocessed in-process), "snapshot" (heap-loaded
	// from a file), or "mmap" (zero-copy mapped from a file).
	Source string
	// SnapshotVersion is the snapshot format version served (0 when built).
	SnapshotVersion uint32
	// LoadDuration is how long the build or the snapshot load took.
	LoadDuration time.Duration
	// Path is the snapshot file (empty when built).
	Path string
	// MappedBytes is the mapping length when Source is "mmap" (0
	// otherwise).
	MappedBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.Index.Source == "" {
		c.Index.Source = "built"
	}
	return c
}

// task is one admitted unit of work: run executes on a pool worker with
// the worker's own query scratch (and must not block on the requester),
// done is closed when the task has been executed or skipped. ran is
// written by the worker before closing done, so readers that observed the
// close may read it without further synchronization.
type task struct {
	ctx  context.Context
	run  func(sc *anns.Scratch)
	done chan struct{}
	ran  bool

	// Stage timing, written by the worker before done closes (same
	// synchronization contract as ran): when the task was enqueued, when
	// execution began, and how long each stage took.
	enq       time.Time
	execStart time.Time
	wait      time.Duration
	exec      time.Duration
}

// metrics is the server's write-side counter block; the read side is the
// front end's ReadCounters. Both are exported via /statsz.
type metrics struct {
	inserts, deletes, mutErrors atomic.Int64
	replFrames, replErrors      atomic.Int64
}

// Server is the HTTP serving layer. Construct with New, expose with
// Handler or ListenAndServe, and stop with Close/Shutdown.
type Server struct {
	cfg   Config
	idx   Searcher
	mux   *http.ServeMux
	queue chan *task
	quit  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
	start time.Time
	m     metrics
	fe    *FrontEnd    // the read endpoints; s is its Backend
	gen   generationer // nil when the index is immutable (epoch 0)

	reg *obs.Registry
	// Per-stage latency histograms (exact LogHistogram distributions,
	// exposed on /metricsz): admission-queue wait and index execution
	// (the front end holds cache lookup's).
	hWait, hExec *obs.Histogram
}

// New builds a Server over idx and starts its worker pool.
func New(idx Searcher, cfg Config) (*Server, error) {
	if idx == nil {
		return nil, errors.New("server: nil Searcher")
	}
	cfg = cfg.withDefaults()
	if cfg.Dimension < 2 {
		return nil, errors.New("server: Config.Dimension must be at least 2")
	}
	s := &Server{
		cfg:   cfg,
		idx:   idx,
		mux:   http.NewServeMux(),
		queue: make(chan *task, cfg.QueueDepth),
		quit:  make(chan struct{}),
		start: time.Now(),
	}
	s.fe = &FrontEnd{
		Backend:        s,
		Dimension:      cfg.Dimension,
		MaxBatch:       cfg.MaxBatch,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		Cache:          qcache.New(cfg.CacheEntries),
		Tracer:         obs.NewTracer(cfg.Trace),
	}
	if g, ok := idx.(generationer); ok {
		s.gen = g
	}
	s.buildRegistry()
	s.fe.Routes(s.mux)
	s.mux.HandleFunc("POST /v1/insert", s.handleInsert)
	s.mux.HandleFunc("POST /v1/delete", s.handleDelete)
	s.mux.HandleFunc("POST /v1/replicate", s.handleReplicate)
	s.mux.HandleFunc("POST /v1/frames", s.handleFrames)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /statsz", s.handleStats)
	s.mux.Handle("GET /metricsz", s.reg)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	// One scratch per worker, reused across every request the worker
	// serves: the query execution model's per-worker context reuse.
	sc := anns.NewScratch()
	for {
		select {
		case t := <-s.queue:
			s.runTask(t, sc)
		case <-s.quit:
			// Drain: admitted work is a promise to the requester, so on
			// shutdown the pool finishes everything already queued instead
			// of abandoning it to per-request deadlines (which made CI
			// teardown timing-dependent). New admissions stopped with the
			// listener; the queue only shrinks here.
			for {
				select {
				case t := <-s.queue:
					s.runTask(t, sc)
				default:
					return
				}
			}
		}
	}
}

// runTask executes one admitted task. A panic inside the index must not
// kill the pool worker or leave the requester hung on done, so it is
// recovered here and surfaces as a counted error (the requester sees it
// as t.ran == false with a live context, i.e. a 500).
func (s *Server) runTask(t *task, sc *anns.Scratch) {
	defer close(t.done)
	defer func() {
		if r := recover(); r != nil {
			s.fe.C.Errors.Add(1)
		}
	}()
	t.execStart = time.Now()
	t.wait = t.execStart.Sub(t.enq)
	s.hWait.Observe(t.wait)
	if t.ctx.Err() == nil {
		t.run(sc)
		t.exec = time.Since(t.execStart)
		s.hExec.Observe(t.exec)
		t.ran = true
	}
}

// Handler returns the HTTP handler (for httptest and custom servers).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown or a listener error.
func (s *Server) ListenAndServe(addr string) error { return s.fe.ListenAndServe(addr, s.mux) }

// Shutdown gracefully stops serving: it closes the listener to new
// requests, waits (up to ctx) for in-flight HTTP requests — and hence
// the admitted tasks they are blocked on — to finish, then stops the
// worker pool, which drains anything still queued. After Shutdown
// returns every admitted request has been answered, which is what makes
// SIGTERM teardown (and the distributed smoke's `kill`) deterministic.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.fe.Shutdown(ctx)
	s.Close()
	return err
}

// Close stops the worker pool after draining the admission queue: every
// task queued before Close is executed (or skipped via its own expired
// deadline), never orphaned. Safe to call more than once.
func (s *Server) Close() {
	s.once.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// clampTimeout resolves a client-requested timeout_ms against a default
// and a cap: the front end's deadline rule, hence both tiers'.
func clampTimeout(ms int, def, max time.Duration) time.Duration {
	if ms <= 0 {
		return def
	}
	d := time.Duration(ms) * time.Millisecond
	if d > max {
		return max
	}
	return d
}

// MaxBodyBytes caps request bodies on every serving endpoint; the
// router enforces the same limit so a request accepted at the front is
// never rejected at a shard for size.
const MaxBodyBytes = 64 << 20

// WriteJSON writes v as the JSON answer with the given status code.
// Shared by both serving tiers so the error schema and content type
// cannot drift apart.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeJSON(w http.ResponseWriter, code int, v any) { WriteJSON(w, code, v) }

// Now and Generation are the front end's readings of this tier: wall
// time, and the served index's mutation epoch (constant 0 for an
// immutable index — its cache entries never invalidate).
func (s *Server) Now() time.Time { return time.Now() }

func (s *Server) Generation() uint64 {
	if s.gen != nil {
		return s.gen.Generation()
	}
	return 0
}

// ExecQuery is this tier's execute stage for /v1/query and /v1/near: one
// admitted task on a pool worker, run on the worker's scratch.
func (s *Server) ExecQuery(ctx context.Context, q ReadRequest, tr *obs.Trace) (QueryResponse, *Failure) {
	var resp QueryResponse
	if f := s.admit(ctx, tr, func(sc *anns.Scratch) {
		if q.Lambda > 0 {
			resp = ToResponse(s.queryNear(sc, q.Point, q.Lambda))
		} else {
			resp = ToResponse(s.query(sc, q.Point))
		}
	}); f != nil {
		// The worker may still be writing resp; it is not ours to read.
		return QueryResponse{}, f
	}
	return resp, nil
}

// ExecBatch is the execute stage for /v1/batch: one admitted task that
// runs the index's own intra-batch pool under the request deadline.
func (s *Server) ExecBatch(ctx context.Context, q ReadRequest, tr *obs.Trace) (BatchResponse, *Failure) {
	var resp BatchResponse
	if f := s.admit(ctx, tr, func(*anns.Scratch) {
		batch := s.idx.BatchQueryContext(ctx, q.Points, s.cfg.BatchWorkers)
		resp.Results = make([]QueryResponse, len(batch))
		for i, b := range batch {
			resp.Results[i] = ToResponse(b.Result, b.Err)
		}
	}); f != nil {
		return BatchResponse{}, f
	}
	return resp, nil
}

// admit queues run under ctx's deadline and waits for it to finish. A
// nil return means run completed and its results may be read; otherwise
// the Failure says why the request was never answered. When tr is non-nil
// the admission wait and execution stages are appended to it as spans.
func (s *Server) admit(ctx context.Context, tr *obs.Trace, run func(sc *anns.Scratch)) *Failure {
	t := &task{ctx: ctx, run: run, done: make(chan struct{}), enq: time.Now()}
	select {
	case s.queue <- t:
	default:
		return &Failure{Status: http.StatusServiceUnavailable, Message: "admission queue full", Outcome: "rejected"}
	}
	select {
	case <-t.done:
		// A worker may dequeue a task whose deadline already passed and
		// skip it; that close races with ctx.Done below, so only t.ran
		// distinguishes an answered request from an expired one.
		if t.ran {
			tr.Add("admission_wait", "", "ok", t.enq, t.wait)
			tr.Add("execute", "", "ok", t.execStart, t.exec)
			return nil
		}
	case <-ctx.Done():
	}
	if f := Expired(ctx); f != nil {
		return f
	}
	// done closed, not ran, context live: the task panicked.
	return &Failure{Status: http.StatusInternalServerError, Message: "internal error", Outcome: "panic"}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:   "ok",
		N:        s.idx.Len(),
		Shards:   1,
		Dim:      s.cfg.Dimension,
		UptimeMS: time.Since(s.start).Milliseconds(),
	}
	if sh, ok := s.idx.(interface{ Shards() int }); ok {
		h.Shards = sh.Shards()
	}
	// The build seed identifies *which* index this process serves (shards
	// derive distinct seeds), letting a router cross-check that a replica
	// actually holds the shard its position is assigned — same-size
	// shards are indistinguishable by n alone.
	if o, ok := s.idx.(interface{ Options() anns.Options }); ok {
		h.Seed = o.Options().Seed
	}
	// Mutable servers additionally report write progress: the router seeds
	// its global ID counter from NextID and ranks replicas for promotion
	// by ReplicationOffset.
	if ms, ok := s.idx.(mutableStatser); ok {
		st := ms.MutableStats()
		h.NextID = &st.NextID
		h.ReplicationOffset = &st.ReplicationOffset
	}
	writeJSON(w, http.StatusOK, h)
}

// Stats returns the current counter snapshot (also served at /statsz).
func (s *Server) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		ReadStats:         s.fe.C.Stats(time.Since(s.start)),
		QueueLen:          len(s.queue),
		Workers:           s.cfg.Workers,
		ScanKernel:        bitvec.ScanKernel(),
		IndexSource:       s.cfg.Index.Source,
		SnapshotVersion:   s.cfg.Index.SnapshotVersion,
		IndexLoadMS:       s.cfg.Index.LoadDuration.Milliseconds(),
		MappedBytes:       s.cfg.Index.MappedBytes,
		Inserts:           s.m.inserts.Load(),
		Deletes:           s.m.deletes.Load(),
		MutationErrors:    s.m.mutErrors.Load(),
		ReplicatedFrames:  s.m.replFrames.Load(),
		ReplicationErrors: s.m.replErrors.Load(),
		Cache:             CacheStatsOf(s.fe.Cache),
	}
	if ms, ok := s.idx.(mutableStatser); ok {
		st := ms.MutableStats()
		snap.Mutable = &MutableStats{
			LiveN:             st.LiveN,
			Memtable:          st.Memtable,
			SealedSegments:    st.Sealed,
			SegmentsBuilt:     st.SegmentsBuilt,
			Compactions:       st.Compactions,
			Tombstones:        st.Tombstones,
			NextID:            st.NextID,
			WALReplayed:       st.WALReplayed,
			WALBytes:          st.WALBytes,
			LastCompactError:  st.LastCompactError,
			Generation:        st.Generation,
			ReplicationOffset: st.ReplicationOffset,
		}
	}
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
