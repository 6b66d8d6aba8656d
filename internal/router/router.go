// Package router is the multi-node serving tier: a coordinator that
// serves the same /v1/query, /v1/batch, /v1/near API as internal/server
// by scatter-gathering over N remote annsd shard servers, each holding
// one shard of the logical index (produced by `annsctl shard-split`).
//
// Per-shard answers are folded with anns.MergeShardReplies — the exact
// fold anns.ShardedIndex uses in-process (rounds = max over shards,
// probes and max_parallel = sum) — so distributed answers are
// byte-identical to a single-process server over the same corpus.
//
// Each shard position maps to a replica set with health-probe-driven
// membership (periodic /healthz polling, consecutive-failure eviction
// with exponential backoff, probe-driven readmission), per-shard hedged
// requests after a latency quantile, bounded in-flight admission, and
// /statsz rollups (per-shard p50/p95/p99, hedge rate, replica state).
// See README.md and DESIGN.md §6.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/anns"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/server"
)

// Config tunes the router. Zero values select the defaults noted on each
// field.
type Config struct {
	// Dimension is the Hamming dimension every shard serves. Required.
	Dimension int
	// N is the logical database size (for /healthz; from the manifest).
	N int
	// Replicas lists each shard position's replica base URLs
	// (e.g. "http://10.0.0.3:7080"), in shard order. Required.
	Replicas [][]string
	// ShardSizes and ShardSeeds are each shard's expected point count
	// and derived build seed from the placement manifest. When set (len
	// must equal len(Replicas)), the health prober cross-checks every
	// replica's /healthz report against them and treats a mismatch as
	// unhealthy — a replica booted from the wrong shard's snapshot (or a
	// swapped -shard flag) is evicted with a "misrouted" reason instead
	// of silently returning answers that merge into wrong results.
	ShardSizes []int
	ShardSeeds []uint64

	// MaxInFlight bounds concurrently admitted requests; overflow is
	// rejected with 503. Default 512.
	MaxInFlight int
	// MaxBatch caps len(points) of one /v1/batch request. Default 4096.
	MaxBatch int
	// DefaultTimeout is the end-to-end deadline when the request does not
	// set timeout_ms. Default 2s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines. Default 30s.
	MaxTimeout time.Duration
	// RequestTimeout floors the per-attempt deadline against one replica.
	// An attempt may use up to half the request's remaining end-to-end
	// budget when that is larger (a legitimately slow request — a large
	// batch under a generous timeout_ms — must be able to finish while
	// still leaving failover headroom), and never more than the full
	// remaining budget. Sitting below the 2s default end-to-end deadline
	// is what lets an attempt against a query-hanging replica time out,
	// count against its health, and fail over. Default 1s.
	RequestTimeout time.Duration

	// HedgeQuantile is the latency quantile of a shard's recent window
	// after which a hedged request goes to a second replica. Default 0.95.
	HedgeQuantile float64
	// HedgeCold is the hedge delay while a shard's window is cold.
	// Default 50ms.
	HedgeCold time.Duration
	// HedgeMin floors the hedge delay so a fast shard does not hedge
	// every request on scheduling jitter. Default 1ms.
	HedgeMin time.Duration

	// ProbeInterval is the health-poll period. Default 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe. Default 1s.
	ProbeTimeout time.Duration
	// EvictAfter is the consecutive-failure count that evicts a replica.
	// Default 2.
	EvictAfter int
	// BackoffBase/BackoffMax bound the eviction backoff (doubles on every
	// failed readmission probe). Defaults 500ms / 8s.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// CacheEntries bounds the router's query-result cache; 0 (the
	// default) disables it. Entries live at the router's write generation
	// (bumped on every acked mutation), so over immutable snapshots they
	// never invalidate and over a replicated mutable cluster every write
	// invalidates the whole cache — enabling it never changes an answer.
	// Keys are the same fingerprints the shard servers use
	// (server.QueryCacheKey / server.NearCacheKey).
	CacheEntries int

	// Durability selects the write-ack policy (DESIGN.md §11.3):
	// DurabilityPrimary (the default) acks when the primary's WAL append
	// returns — replica relay failures are counted but do not fail the
	// request; DurabilityQuorum acks only when ⌊R/2⌋+1 replicas (counting
	// the primary) hold the frame.
	Durability string
	// Manifest, when set, carries the cluster's placement manifest: the
	// initial epoch and per-shard primary designations are read from it,
	// and a promotion rewrites it (epoch bumped) at ManifestPath so a
	// router restart keeps the promoted topology.
	Manifest     *Manifest
	ManifestPath string

	// Client overrides the HTTP client (tests). Default: pooled transport.
	Client *http.Client

	// Clock overrides the time source for the probe/backoff/hedge state
	// machine (virtual-time tests, the chaos harness). Default: wall clock.
	// Context deadlines still run on wall time — the Clock governs the
	// router's own timers, not the kernel's.
	Clock Clock

	// OnReplicaState, when set, is called on every replica state
	// transition: state is StateEvicted or StateHealthy, reason the
	// failure that tipped the eviction ("" on readmission). Called
	// synchronously from the probe and request paths — keep it fast and
	// never call back into the Router from it.
	OnReplicaState func(shard int, url, state, reason string)

	// Trace configures request tracing and the slow-query log (obs). The
	// zero value disables emission; requests arriving with an
	// X-Anns-Trace header are still traced under that ID so a test or
	// upstream tier can force a timeline.
	Trace obs.TracerConfig
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 512
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
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = time.Second
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeCold <= 0 {
		c.HedgeCold = 50 * time.Millisecond
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 8 * time.Second
	}
	if c.Durability == "" {
		c.Durability = DurabilityPrimary
	}
	return c
}

// metrics is the router's write-path counter block; the merged-query
// counters are the front end's server.ReadCounters (same accounting as a
// shard server's, over merged logical answers).
type metrics struct {
	writes, writeErrors           atomic.Int64
	replications, replicationErrs atomic.Int64
	promotions                    atomic.Int64
}

// Router is the shard-scatter coordinator. Construct with New, expose
// with Handler or ListenAndServe, stop with Close.
type Router struct {
	cfg    Config
	client *http.Client
	clock  Clock
	shards []*shard
	global func(shard, local int) int
	mux    *http.ServeMux
	sem    chan struct{}
	quit   chan struct{}
	done   chan struct{}
	once   sync.Once
	start  time.Time
	m      metrics
	fe     *server.FrontEnd // the read endpoints; rt is its Backend

	reg *obs.Registry
	// Stage histogram of the shard-reply merge (the front end holds cache
	// lookup's). Per-shard RPC histograms live on each shard (replica.go).
	hMerge *obs.Histogram

	// Write-path state (writes.go). Mutations are serialized under
	// writeMu — global ID assignment is an order, and sequential
	// assignment is what keeps a routed cluster byte-identical to a
	// single MutableSharded oracle. wgen is the cache's invalidation
	// generation (bumped on every acked write); epoch is the placement
	// epoch (bumped on every promotion).
	writeMu       sync.Mutex
	nextGlobal    uint64 // guarded by writeMu
	nextInit      bool   // guarded by writeMu
	writesStarted atomic.Bool
	wgen          atomic.Uint64
	epoch         atomic.Uint64
}

// New builds a Router over cfg.Replicas and starts the health prober.
// The local→global answer translation follows the round-robin placement
// of BuildSharded / shard-split.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Dimension < 2 {
		return nil, errors.New("router: Config.Dimension must be at least 2")
	}
	if len(cfg.Replicas) < 1 {
		return nil, errors.New("router: need at least 1 shard")
	}
	if cfg.ShardSizes != nil && len(cfg.ShardSizes) != len(cfg.Replicas) {
		return nil, fmt.Errorf("router: %d shard sizes for %d shards", len(cfg.ShardSizes), len(cfg.Replicas))
	}
	if cfg.ShardSeeds != nil && len(cfg.ShardSeeds) != len(cfg.Replicas) {
		return nil, fmt.Errorf("router: %d shard seeds for %d shards", len(cfg.ShardSeeds), len(cfg.Replicas))
	}
	if cfg.Durability != DurabilityPrimary && cfg.Durability != DurabilityQuorum {
		return nil, fmt.Errorf("router: unknown durability %q (want %q or %q)",
			cfg.Durability, DurabilityPrimary, DurabilityQuorum)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = wallClock{}
	}
	rt := &Router{
		cfg:    cfg,
		client: cfg.Client,
		clock:  clock,
		shards: make([]*shard, len(cfg.Replicas)),
		global: anns.RoundRobinGlobal(len(cfg.Replicas)),
		mux:    http.NewServeMux(),
		sem:    make(chan struct{}, cfg.MaxInFlight),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		start:  clock.Now(),
	}
	rt.fe = &server.FrontEnd{
		Backend:        rt,
		Dimension:      cfg.Dimension,
		MaxBatch:       cfg.MaxBatch,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		Cache:          qcache.New(cfg.CacheEntries),
		Tracer:         obs.NewTracer(cfg.Trace),
	}
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * cfg.MaxInFlight,
			MaxIdleConnsPerHost: cfg.MaxInFlight,
		}}
	}
	for s, urls := range cfg.Replicas {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", s)
		}
		sh := &shard{pos: s, lat: newLatWindow(cfg.HedgeQuantile), rpc: obs.NewHistogram()}
		for _, u := range urls {
			sh.replicas = append(sh.replicas, &replica{url: u})
		}
		// The primary designation comes from the manifest when it carries
		// one (v2); position 0 otherwise.
		if cfg.Manifest != nil && s < len(cfg.Manifest.Files) {
			if p := cfg.Manifest.Files[s].Primary; p > 0 && p < len(urls) {
				sh.primary.Store(int32(p))
			}
		}
		rt.shards[s] = sh
	}
	if cfg.Manifest != nil {
		rt.epoch.Store(cfg.Manifest.Epoch)
	}
	rt.fe.Routes(rt.mux)
	rt.mux.HandleFunc("POST /v1/insert", rt.handleInsert)
	rt.mux.HandleFunc("POST /v1/delete", rt.handleDelete)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /statsz", rt.handleStats)
	rt.buildRegistry()
	rt.mux.Handle("GET /metricsz", rt.reg)
	// One synchronous sweep before serving: without it, every replica
	// starts healthy and a misrouted one (swapped -shard flag) would
	// merge wrong answers until the ticker's first firing. Replicas that
	// are merely not up yet survive the sweep (one transport failure is
	// below EvictAfter); manifest mismatches evict immediately.
	rt.probeSweep(rt.clock.Now())
	go rt.prober()
	return rt, nil
}

// Handler returns the HTTP handler (for httptest and custom servers).
func (rt *Router) Handler() http.Handler { return rt.mux }

// ListenAndServe serves on addr until Close or a listener error.
func (rt *Router) ListenAndServe(addr string) error { return rt.fe.ListenAndServe(addr, rt.mux) }

// Shutdown gracefully drains the HTTP listener, then stops the prober.
func (rt *Router) Shutdown(ctx context.Context) error {
	err := rt.fe.Shutdown(ctx)
	rt.Close()
	return err
}

// Close stops the health prober. Safe to call more than once.
func (rt *Router) Close() {
	rt.once.Do(func() { close(rt.quit) })
	<-rt.done
}

// ---- health probing ----

func (rt *Router) prober() {
	defer close(rt.done)
	t := rt.clock.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-t.C():
			rt.probeSweep(rt.clock.Now())
		}
	}
}

// probeSweep launches one probe per eligible replica. Probes run
// concurrently so one dead host cannot stall the sweep past the next
// tick; beginProbe guarantees at most one probe per replica in flight.
func (rt *Router) probeSweep(now time.Time) {
	var wg sync.WaitGroup
	for _, sh := range rt.shards {
		for _, rep := range sh.replicas {
			if rep.beginProbe(now) {
				wg.Add(1)
				go func(rep *replica, pos int) {
					defer wg.Done()
					rt.probe(rep, pos)
				}(rep, sh.pos)
			}
		}
	}
	wg.Wait()
	// A dead primary is promoted away between writes too, so failover is
	// visible to read-only clients (and /statsz) without waiting for the
	// next mutation to trip over it. Gated on writesStarted: an immutable
	// cluster has no meaningful primary and must not churn the epoch.
	if rt.writesStarted.Load() {
		for _, sh := range rt.shards {
			if sh.replicas[sh.primary.Load()].healthy() {
				continue
			}
			rt.writeMu.Lock()
			if !sh.replicas[sh.primary.Load()].healthy() {
				rt.promoteLocked(sh)
			}
			rt.writeMu.Unlock()
		}
	}
}

// probe polls one replica's /healthz and validates the report against
// the placement manifest: a reachable replica that serves the wrong
// dimension, the wrong point count, or — decisive for same-size shards —
// the wrong derived seed is a *misrouted* replica whose answers would
// merge into silently wrong results. Transport failures count toward the
// usual EvictAfter threshold; a manifest mismatch is a deterministic
// configuration error and evicts immediately.
func (rt *Router) probe(rep *replica, shardPos int) {
	defer rep.endProbe()
	reason, mismatch, err := rt.checkHealth(rep, shardPos)
	if err != nil {
		reason = err.Error()
	}
	if reason == "" {
		rt.replicaSuccess(shardPos, rep, true)
		return
	}
	rep.setLastErr(reason)
	evictAfter := rt.cfg.EvictAfter
	if mismatch {
		evictAfter = 1
	}
	rt.replicaFailure(shardPos, rep, evictAfter, reason)
}

// replicaSuccess records a success (probe-path when probe is true,
// request-path otherwise) and fires the OnReplicaState hook when the
// call readmitted an evicted replica.
func (rt *Router) replicaSuccess(shardPos int, rep *replica, probe bool) {
	now := rt.clock.Now()
	var readmitted bool
	if probe {
		readmitted = rep.probeSuccess(now)
	} else {
		readmitted = rep.reportSuccess(now)
	}
	if readmitted && rt.cfg.OnReplicaState != nil {
		rt.cfg.OnReplicaState(shardPos, rep.url, StateHealthy, "")
	}
}

// replicaFailure records a failure and fires the OnReplicaState hook
// when the call crossed the eviction threshold. It reports whether this
// failure evicted the replica, so the request path can stamp eviction
// pressure onto trace spans.
func (rt *Router) replicaFailure(shardPos int, rep *replica, evictAfter int, reason string) bool {
	evicted := rep.reportFailure(rt.clock.Now(), evictAfter, rt.cfg.BackoffBase, rt.cfg.BackoffMax)
	if evicted && rt.cfg.OnReplicaState != nil {
		rt.cfg.OnReplicaState(shardPos, rep.url, StateEvicted, reason)
	}
	return evicted
}

// checkHealth fetches and validates one /healthz report. It returns a
// non-empty reason for unhealthy-but-reachable replicas (mismatch marks
// a deterministic manifest violation) and an error for transport
// failures.
func (rt *Router) checkHealth(rep *replica, shardPos int) (reason string, mismatch bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/healthz", nil)
	if err != nil {
		return "", false, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return "", false, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if err != nil {
		return "", false, err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("healthz answered %d", resp.StatusCode), false, nil
	}
	var h server.Health
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Sprintf("bad healthz body: %v", err), false, nil
	}
	if h.Dim != rt.cfg.Dimension {
		return fmt.Sprintf("serves dimension %d, cluster dimension is %d", h.Dim, rt.cfg.Dimension), true, nil
	}
	// A mutable replica reports its write progress; harvest it for
	// promotion ranking and skip the N-equality check — a replicating
	// shard grows past its snapshot size by design, so only the derived
	// seed still distinguishes same-shaped shards.
	mutable := h.ReplicationOffset != nil
	if mutable {
		rep.noteReplication(*h.ReplicationOffset)
	}
	if !mutable && rt.cfg.ShardSizes != nil && h.N != rt.cfg.ShardSizes[shardPos] {
		return fmt.Sprintf("misrouted: serves n=%d, shard %d's snapshot holds n=%d",
			h.N, shardPos, rt.cfg.ShardSizes[shardPos]), true, nil
	}
	if rt.cfg.ShardSeeds != nil && h.Seed != 0 && h.Seed != rt.cfg.ShardSeeds[shardPos] {
		return fmt.Sprintf("misrouted: serves seed %d, shard %d built with seed %d",
			h.Seed, shardPos, rt.cfg.ShardSeeds[shardPos]), true, nil
	}
	return "", false, nil
}

// ---- one shard request with failover + hedging ----

var errNoReplica = errors.New("router: no replica available")

// errCorruptReply marks a 200 answer whose body does not decode as the
// expected response type. It counts against the replica's health and
// triggers failover exactly like a 5xx: a replica emitting corrupt
// frames must never silently vanish from the merge (dropping its shard
// from the fold would produce a well-formed wrong answer).
var errCorruptReply = errors.New("router: replica answered 200 with an undecodable body")

// httpError is a non-200 answer from a replica. 5xx counts against the
// replica's health and triggers failover; 4xx means the router's own
// request is bad and fails fast (every replica would reject it the same
// way).
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("replica answered %d: %s", e.status, e.body)
}

type attemptResult struct {
	body    []byte
	spans   string // X-Anns-Spans echoed by the replica (traced requests)
	err     error
	rep     *replica
	hedge   bool
	start   time.Time
	latency time.Duration
}

// shardDo runs one request against shard sh: a primary attempt on the
// picked replica, a hedged second attempt on a different replica once
// the shard's latency-quantile delay expires, and failover to untried
// replicas on failure. First success wins. Attempts are bounded by the
// replica-set size. valid, when non-nil, vets a 200 body before it can
// win: an undecodable body is converted to errCorruptReply and handled
// like any replica failure (health pressure + failover) instead of
// being dropped from the merge upstream.
func (rt *Router) shardDo(ctx context.Context, sh *shard, path string, body []byte, valid func([]byte) bool, tr *obs.Trace) ([]byte, error) {
	sh.requests.Add(1)
	primary := sh.pick(rt.clock.Now(), nil, true)
	if primary == nil {
		sh.errors.Add(1)
		tr.Add("rpc", "", "no-replica", rt.clock.Now(), 0)
		return nil, errNoReplica
	}
	// All attempts run under a derived context so the losing side of a
	// hedge (or a straggler behind a failover) is torn down as soon as a
	// winner lands, instead of burning a second replica's time on an
	// answer nobody will read.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tried := []*replica{primary}
	resc := make(chan attemptResult, len(sh.replicas)+1)
	traceID := tr.ID()
	// launch is only called from this goroutine, so the attempt start it
	// captures is also readable here without synchronization (used for
	// the lost-hedge span below).
	var primaryStart time.Time
	launch := func(rep *replica, hedge bool) {
		t0 := rt.clock.Now()
		if rep == primary {
			primaryStart = t0
		}
		go func() {
			b, spans, err := rt.postTraced(ctx, rep.url+path, body, traceID)
			resc <- attemptResult{body: b, spans: spans, err: err, rep: rep, hedge: hedge, start: t0, latency: rt.clock.Since(t0)}
		}()
	}
	launch(primary, false)
	inflight := 1

	delay := sh.lat.hedgeDelay()
	if delay <= 0 {
		delay = rt.cfg.HedgeCold
	}
	if delay < rt.cfg.HedgeMin {
		delay = rt.cfg.HedgeMin
	}
	timer := rt.clock.NewTimer(delay)
	defer timer.Stop()
	timerC := timer.C()

	var lastErr error
	primaryDone := false
	for {
		select {
		case <-ctx.Done():
			sh.errors.Add(1)
			return nil, ctx.Err()
		case <-timerC:
			timerC = nil
			if rep := sh.pick(rt.clock.Now(), tried, false); rep != nil {
				tried = append(tried, rep)
				sh.hedges.Add(1)
				launch(rep, true)
				inflight++
			}
		case res := <-resc:
			inflight--
			if res.rep == primary {
				primaryDone = true
			}
			if res.err == nil && valid != nil && !valid(res.body) {
				res.err = errCorruptReply
			}
			if res.err == nil {
				// The primary losing to an attempt that started a full
				// hedge delay later is the gray-failure signal: a replica
				// that hangs on queries but answers health probes would
				// otherwise never accrue eviction pressure (its abandoned
				// attempt is canceled, not reported). Jitter is safe: one
				// success resets the consecutive-failure count.
				if !primaryDone {
					outcome := "lost-hedge"
					if rt.replicaFailure(sh.pos, primary, rt.cfg.EvictAfter, "lost hedge race") {
						outcome = "lost-hedge-evicted"
					}
					tr.Add("rpc", primary.url, outcome, primaryStart, rt.clock.Since(primaryStart))
				}
				rt.replicaSuccess(sh.pos, res.rep, false)
				sh.lat.record(res.latency)
				sh.rpc.Observe(res.latency)
				tr.Add("rpc", res.rep.url, "ok", res.start, res.latency)
				rt.rebaseRemoteSpans(tr, res)
				if res.hedge {
					sh.hedgeWins.Add(1)
				}
				return res.body, nil
			}
			lastErr = res.err
			var he *httpError
			if errors.As(res.err, &he) && he.status < 500 {
				sh.errors.Add(1)
				tr.Add("rpc", res.rep.url, "client-error", res.start, res.latency)
				return nil, res.err
			}
			{
				outcome := "error"
				if rt.replicaFailure(sh.pos, res.rep, rt.cfg.EvictAfter, res.err.Error()) {
					outcome = "error-evicted"
				}
				tr.Add("rpc", res.rep.url, outcome, res.start, res.latency)
			}
			if next := sh.pick(rt.clock.Now(), tried, true); next != nil {
				tried = append(tried, next)
				sh.failovers.Add(1)
				launch(next, false)
				inflight++
			} else if inflight == 0 {
				sh.errors.Add(1)
				return nil, lastErr
			}
		}
	}
}

// attemptTimeout resolves one attempt's deadline: RequestTimeout as the
// floor, up to half the remaining end-to-end budget (so one slow replica
// cannot consume the whole budget and leave failover nothing), capped by
// the remaining budget itself.
func (rt *Router) attemptTimeout(ctx context.Context) time.Duration {
	d := rt.cfg.RequestTimeout
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if half := remaining / 2; half > d {
			d = half
		}
		if remaining < d {
			d = remaining
		}
	}
	return d
}

// post runs one attempt against one replica URL under the per-attempt
// timeout, returning the 200 body or an error.
func (rt *Router) post(ctx context.Context, url string, body []byte) ([]byte, error) {
	b, _, err := rt.postTraced(ctx, url, body, "")
	return b, err
}

// postTraced is post with trace propagation: a non-empty traceID rides
// out on X-Anns-Trace and the replica's X-Anns-Spans answer rides back.
func (rt *Router) postTraced(ctx context.Context, url string, body []byte, traceID string) ([]byte, string, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.attemptTimeout(ctx))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	spans := resp.Header.Get(obs.SpansHeader)
	b, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxBodyBytes))
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		msg := string(b)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, spans, &httpError{status: resp.StatusCode, body: msg}
	}
	return b, spans, nil
}

// rebaseRemoteSpans folds a replica's own stage spans into the router's
// timeline: the replica reported offsets relative to its request arrival,
// which the router approximates with the attempt's launch instant. The
// replica column is stamped so a remote "execute" is attributable to the
// host that ran it.
func (rt *Router) rebaseRemoteSpans(tr *obs.Trace, res attemptResult) {
	if tr == nil || res.spans == "" {
		return
	}
	base := res.start.Sub(tr.Start()).Microseconds()
	for _, sp := range obs.DecodeSpans(res.spans) {
		sp.StartUS += base
		if sp.Replica == "" {
			sp.Replica = res.rep.url
		}
		tr.AddSpan(sp)
	}
}

// ---- scatter-gather ----

// scatter is the one router fan-out: it sends body to path on every
// shard concurrently (each through shardDo's hedging and failover) and
// hands every 200 body to each(s, raw) on that shard's goroutine, so the
// replies decode in parallel; a shard that failed on every replica is
// skipped — no accounting, no candidate. each must only touch slot s.
func (rt *Router) scatter(ctx context.Context, path string, body []byte, valid func([]byte) bool, tr *obs.Trace, each func(s int, raw []byte)) {
	var wg sync.WaitGroup
	for s := range rt.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if raw, err := rt.shardDo(ctx, rt.shards[s], path, body, valid, tr); err == nil {
				each(s, raw)
			}
		}(s)
	}
	wg.Wait()
}

// ---- the read front end's backend ----

// writeJSON and the body limits are internal/server's own (WriteJSON,
// ReadBody, MaxBodyBytes), so the two tiers cannot drift apart on schema
// or caps.
var writeJSON = server.WriteJSON

// admit reserves one in-flight slot; the caller releases it. A full
// router is the tier's 503.
func (rt *Router) admit() *server.Failure {
	select {
	case rt.sem <- struct{}{}:
		return nil
	default:
		return &server.Failure{Status: http.StatusServiceUnavailable, Message: "router at max in-flight", Outcome: "rejected"}
	}
}

func (rt *Router) release() { <-rt.sem }

// Now is the router's Clock, so span offsets are exact under
// VirtualClock.
func (rt *Router) Now() time.Time { return rt.clock.Now() }

// Generation is the router's write generation: constant over immutable
// snapshots (every cache entry stays valid forever), bumped on every
// acked mutation over a replicated cluster (every entry from before the
// write misses).
func (rt *Router) Generation() uint64 { return rt.wgen.Load() }

var errQueryFailed = errors.New("router: query failed on every shard")

func validQuery(raw []byte) bool {
	var qr server.QueryResponse
	return json.Unmarshal(raw, &qr) == nil
}

// ExecQuery is the router's execute stage for /v1/query and /v1/near: the
// request body is forwarded verbatim (both ends speak internal/server's
// wire schema) and the shard answers are folded with MergeShardReplies.
// It mirrors the in-process fan-out's failure rule: for near, NO is an
// answer (some shard answered, none said YES), an error is not.
func (rt *Router) ExecQuery(ctx context.Context, q server.ReadRequest, tr *obs.Trace) (server.QueryResponse, *server.Failure) {
	if f := rt.admit(); f != nil {
		return server.QueryResponse{}, f
	}
	defer rt.release()
	near := q.Lambda > 0
	replies := make([]anns.ShardReply, len(rt.shards))
	wireOK := make([]bool, len(rt.shards)) // shard answered at all (Error == "")
	rt.scatter(ctx, q.Path, q.Body, validQuery, tr, func(s int, raw []byte) {
		var qr server.QueryResponse
		if json.Unmarshal(raw, &qr) != nil {
			return
		}
		wireOK[s] = qr.Error == ""
		// For near only YES answers carry a witness to merge.
		replies[s] = anns.ShardReply{Result: qr.Result(), OK: wireOK[s] && (!near || qr.Index >= 0)}
	})
	mStart := rt.clock.Now()
	merged := anns.MergeShardReplies(replies, rt.global)
	mDur := rt.clock.Since(mStart)
	rt.hMerge.Observe(mDur)
	tr.Add("merge", "", "ok", mStart, mDur)
	// A request whose end-to-end deadline passed gets 504, not a 200 with
	// an error body: the same status semantics as a shard server.
	if f := server.Expired(ctx); f != nil {
		return server.QueryResponse{}, f
	}
	var err error
	switch {
	case merged.Index >= 0 || near && slices.Contains(wireOK, true):
	case near:
		err = errors.New("router: near query failed on every shard")
	default:
		err = errQueryFailed
	}
	return server.ToResponse(merged, err), nil
}

// ExecBatch is the execute stage for /v1/batch: one batch request per
// shard (the whole batch is each shard's fan-out unit), merged point-wise
// afterwards.
func (rt *Router) ExecBatch(ctx context.Context, q server.ReadRequest, tr *obs.Trace) (server.BatchResponse, *server.Failure) {
	if f := rt.admit(); f != nil {
		return server.BatchResponse{}, f
	}
	defer rt.release()
	// The validator also checks the result count, so a truncated-but-
	// parseable frame fails over instead of dropping the shard from every
	// slot's merge.
	decode := func(raw []byte) []server.QueryResponse {
		var br server.BatchResponse
		if json.Unmarshal(raw, &br) != nil || len(br.Results) != len(q.Points) {
			return nil
		}
		return br.Results
	}
	valid := func(raw []byte) bool { return decode(raw) != nil }
	shardResults := make([][]server.QueryResponse, len(rt.shards))
	rt.scatter(ctx, q.Path, q.Body, valid, tr, func(s int, raw []byte) { shardResults[s] = decode(raw) })
	if f := server.Expired(ctx); f != nil {
		return server.BatchResponse{}, f
	}
	resp := server.BatchResponse{Results: make([]server.QueryResponse, len(q.Points))}
	replies := make([]anns.ShardReply, len(rt.shards))
	for i := range resp.Results {
		shed := ""
		for s, rs := range shardResults {
			replies[s] = anns.ShardReply{}
			if rs != nil {
				replies[s] = anns.ShardReply{Result: rs[i].Result(), OK: rs[i].Error == ""}
				if server.ShedSlot(rs[i].Error) {
					shed = rs[i].Error
				}
			}
		}
		merged := anns.MergeShardReplies(replies, rt.global)
		var err error
		switch {
		case merged.Index >= 0:
		case shed != "":
			// A slot a shard's deadline cancelled before dispatch was shed,
			// not executed; carrying the shard's text keeps it recognizable
			// to server.ShedSlot, so it is not charged to errors.
			err = errors.New("router: query shed by shard deadline: " + shed)
		default:
			err = errQueryFailed
		}
		resp.Results[i] = server.ToResponse(merged, err)
	}
	return resp, nil
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, server.Health{
		Status:   "ok",
		N:        rt.cfg.N,
		Shards:   len(rt.shards),
		Dim:      rt.cfg.Dimension,
		UptimeMS: rt.clock.Since(rt.start).Milliseconds(),
	})
}

// Stats returns the current rollup (also served at /statsz).
func (rt *Router) Stats() Stats {
	out := Stats{
		ReadStats:        rt.fe.C.Stats(rt.clock.Since(rt.start)),
		InFlight:         len(rt.sem),
		Writes:           rt.m.writes.Load(),
		WriteErrors:      rt.m.writeErrors.Load(),
		ReplicatedFrames: rt.m.replications.Load(),
		ReplicationErrs:  rt.m.replicationErrs.Load(),
		Promotions:       rt.m.promotions.Load(),
		Epoch:            rt.epoch.Load(),
		Durability:       rt.cfg.Durability,
	}
	var shardReqs int64
	for _, sh := range rt.shards {
		// Quantiles come from the shard's exact LogHistogram over every
		// successful RPC, not the 512-sample latWindow (which survives
		// only to drive the hedge-delay policy).
		ss := ShardStats{
			Shard:        sh.pos,
			Replicas:     len(sh.replicas),
			Requests:     sh.requests.Load(),
			Errors:       sh.errors.Load(),
			Hedges:       sh.hedges.Load(),
			HedgeWins:    sh.hedgeWins.Load(),
			Failovers:    sh.failovers.Load(),
			P50MS:        sh.rpc.QuantileMS(0.50),
			P95MS:        sh.rpc.QuantileMS(0.95),
			P99MS:        sh.rpc.QuantileMS(0.99),
			HedgeDelayMS: float64(sh.lat.hedgeDelay().Microseconds()) / 1000,
		}
		primary := int(sh.primary.Load())
		ss.Primary = sh.replicas[primary].url
		for i, rep := range sh.replicas {
			rs := rep.snapshot()
			rs.Primary = i == primary
			if rs.State == StateHealthy {
				ss.Healthy++
			}
			ss.ReplicaStats = append(ss.ReplicaStats, rs)
		}
		out.Hedges += ss.Hedges
		out.HedgeWins += ss.HedgeWins
		out.Failovers += ss.Failovers
		shardReqs += ss.Requests
		out.ShardStats = append(out.ShardStats, ss)
	}
	if shardReqs > 0 {
		out.HedgeRate = float64(out.Hedges) / float64(shardReqs)
	}
	out.Cache = server.CacheStatsOf(rt.fe.Cache)
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}
