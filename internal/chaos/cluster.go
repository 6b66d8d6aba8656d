package chaos

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/anns"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/workload"
)

// Shape is one cluster topology: S shard positions × R replicas each.
type Shape struct {
	Shards   int
	Replicas int
}

func (s Shape) String() string { return fmt.Sprintf("%dx%d", s.Shards, s.Replicas) }

// ParseShape parses "SxR" (e.g. "2x2", "3x2").
func ParseShape(str string) (Shape, error) {
	var sh Shape
	if _, err := fmt.Sscanf(strings.TrimSpace(str), "%dx%d", &sh.Shards, &sh.Replicas); err != nil {
		return sh, fmt.Errorf("chaos: shape %q is not SxR: %w", str, err)
	}
	if sh.Shards < 1 || sh.Replicas < 2 {
		return sh, fmt.Errorf("chaos: shape %q needs >=1 shard and >=2 replicas (a fault targets one replica; the others must be able to cover)", str)
	}
	return sh, nil
}

// Cluster is one in-process distributed deployment: the shard-split
// snapshot+manifest on disk, S×R real shard servers each booted from
// its shard's snapshot, one fault proxy in front of every replica, and
// an unfaulted reference server over the equivalent single-process
// ShardedIndex. The reference is the oracle for the zero-wrong-answer
// invariant: router answers must match it byte-for-byte, the same fold
// equivalence TestRouterMatchesSingleProcess pins.
//
// The cluster is stateless across query-path trials (shard servers
// serve immutable snapshots), so one cluster is shared by every trial
// of a shape; each trial gets its own Router (fresh health state and
// counters) and arms faults on the shared proxies, clearing them after.
type Cluster struct {
	Shape    Shape
	Dim      int
	Seed     uint64
	Inst     *workload.Instance
	Manifest *router.Manifest

	backends []*backendServer // all replica servers plus the reference
	Proxies  [][]*Proxy       // [shard][replica]
	RefURL   string
}

// backendServer is one HTTP server over one index.
type backendServer struct {
	srv *server.Server
	hs  *http.Server
	ln  net.Listener
}

func (b *backendServer) url() string { return "http://" + b.ln.Addr().String() }

func (b *backendServer) close() {
	b.hs.Close()
	b.srv.Close()
}

// serveIndex boots one shard-server over ix on a fresh loopback port.
// cacheEntries > 0 puts a result cache in front of the server's query
// path — the faulted side of an experiment runs cached while the
// reference oracle stays uncached, so every compared answer also proves
// the cache never serves a reply a fresh execution wouldn't.
func serveIndex(ix server.Searcher, dim, cacheEntries int) (*backendServer, error) {
	srv, err := server.New(ix, server.Config{Dimension: dim, Workers: 2, CacheEntries: cacheEntries})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &backendServer{srv: srv, hs: hs, ln: ln}, nil
}

// BuildCluster stands up one deployment in dir: it generates the seeded
// corpus, builds the sharded index, writes per-shard snapshots plus the
// placement manifest (the `annsctl shard-split` layout), boots every
// replica from its snapshot file, and fronts each with a Proxy. n and q
// size the corpus and the ground-truth query stream; the planted-NN
// workload keeps every query's right answer unambiguous. cacheEntries
// enables the epoch-invalidated result cache on every replica (0 =
// off); the reference oracle always runs uncached, so the byte-identity
// invariant doubles as a stale-reply check on the cache.
func BuildCluster(dir string, shape Shape, seed uint64, dim, n, q, cacheEntries int) (*Cluster, error) {
	spec := workload.Spec{Kind: "planted", D: dim, N: n, Q: q, Dist: dim / 10, Seed: seed}
	inst, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	pts := make([]anns.Point, len(inst.DB))
	copy(pts, inst.DB)
	sx, err := anns.BuildSharded(pts, shape.Shards, anns.Options{Dimension: dim, Rounds: 2, Seed: seed})
	if err != nil {
		return nil, err
	}

	mpath, err := router.WriteShardSplit(dir, sx)
	if err != nil {
		return nil, err
	}
	loaded, err := router.LoadManifest(mpath)
	if err != nil {
		return nil, err
	}

	c := &Cluster{Shape: shape, Dim: dim, Seed: seed, Inst: inst, Manifest: loaded}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}
	// Every replica boots from its shard's snapshot file — the same
	// build→split→load→serve lifecycle a real deployment runs.
	for s := 0; s < shape.Shards; s++ {
		var row []*Proxy
		for r := 0; r < shape.Replicas; r++ {
			f, err := os.Open(loaded.ShardPath(mpath, s))
			if err != nil {
				return fail(err)
			}
			ix, err := anns.LoadIndex(f)
			f.Close()
			if err != nil {
				return fail(err)
			}
			b, err := serveIndex(ix, dim, cacheEntries)
			if err != nil {
				return fail(err)
			}
			c.backends = append(c.backends, b)
			p, err := NewProxy(b.url())
			if err != nil {
				return fail(err)
			}
			row = append(row, p)
		}
		c.Proxies = append(c.Proxies, row)
	}
	ref, err := serveIndex(sx, dim, 0)
	if err != nil {
		return fail(err)
	}
	c.backends = append(c.backends, ref)
	c.RefURL = ref.url()
	return c, nil
}

// ClearFaults disarms every proxy (between trials).
func (c *Cluster) ClearFaults() {
	for _, row := range c.Proxies {
		for _, p := range row {
			p.SetFault(Fault{})
		}
	}
}

// RouterConfig is the trial-tuned router over the cluster's proxies:
// tight probe/backoff cadence so detection and readmission happen in
// milliseconds, a sub-second attempt timeout so hung replicas fail
// over inside a trial, and an aggressive cold hedge so slow-replica
// trials exercise hedging. onTrace, when non-nil, turns on per-request
// tracing and receives every finished trace — the harness uses the
// span stream to re-derive eviction detection latency independently of
// the OnReplicaState hook (same incident, two witnesses).
func (c *Cluster) RouterConfig(onState func(shard int, url, state, reason string), onTrace func(obs.TraceRecord)) router.Config {
	var urls [][]string
	sizes := make([]int, c.Shape.Shards)
	seeds := make([]uint64, c.Shape.Shards)
	for s, row := range c.Proxies {
		var rs []string
		for _, p := range row {
			rs = append(rs, p.URL())
		}
		urls = append(urls, rs)
		sizes[s] = c.Manifest.Files[s].N
		seeds[s] = c.Manifest.Files[s].Seed
	}
	return router.Config{
		Dimension:      c.Dim,
		N:              c.Manifest.N,
		Replicas:       urls,
		ShardSizes:     sizes,
		ShardSeeds:     seeds,
		DefaultTimeout: 5 * time.Second,
		RequestTimeout: 300 * time.Millisecond,
		ProbeInterval:  25 * time.Millisecond,
		ProbeTimeout:   250 * time.Millisecond,
		EvictAfter:     2,
		BackoffBase:    50 * time.Millisecond,
		BackoffMax:     500 * time.Millisecond,
		HedgeCold:      10 * time.Millisecond,
		HedgeMin:       1 * time.Millisecond,
		OnReplicaState: onState,
		Trace:          obs.TracerConfig{OnTrace: onTrace},
	}
}

// Close tears down every server and proxy.
func (c *Cluster) Close() {
	for _, row := range c.Proxies {
		for _, p := range row {
			p.Close()
		}
	}
	for _, b := range c.backends {
		b.close()
	}
}
