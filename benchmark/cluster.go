package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/anns"
	"repro/internal/router"
	"repro/internal/server"
)

// deployment is one booted system under test: real servers on loopback
// HTTP, built the way a production deployment is (build → shard-split
// layout on disk → open snapshots → server.New → router.New), plus the
// in-process objects the benchmark needs as oracles and for the direct
// layer timings.
type deployment struct {
	plan  *plan
	entry string // base URL the generator talks to: the router, or the lone server

	rt    *router.Router
	nodes [][]*node // [shard][replica]

	sharded *anns.ShardedIndex // static routed workloads: the built index (oracle)
	single  *anns.Index        // engine-novel: the served index itself

	closers []func()

	// Boot measurements (seconds / bytes), filled by boot.
	setupS, buildS, saveS, openS float64
	snapBytes                    int64
}

// node is one shard server.
type node struct {
	url    string
	srv    *server.Server
	static *anns.Index        // immutable replica's index (nil when mutable)
	mx     *anns.MutableIndex // mutable replica's tier (nil when static)
	wal    string
}

// listen serves h on a fresh loopback port and returns its base URL.
// kind names the tier for the timing middleware a non-nil sink adds.
func (d *deployment) listen(kind string, h http.Handler, sink *spanSink) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	url := "http://" + ln.Addr().String()
	hs := &http.Server{Handler: sink.wrap(kind, url, h)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	d.closers = append(d.closers, func() {
		hs.Close()
		<-done
	})
	return url, nil
}

// close tears the deployment down, newest component first, and waits
// for every goroutine it started.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// boot stands the plan's deployment up in dir and returns once the
// entry point has given one good reply. sink, when non-nil, wraps every
// handler in the benchmark's timing middleware (traced runs only).
func boot(p *plan, dir string, sink *spanSink) (d *deployment, err error) {
	d = &deployment{plan: p}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	start := time.Now()
	opts := anns.Options{Dimension: p.sz.Dim, Gamma: gamma, Rounds: rounds, Algorithm: anns.Simple, Seed: corpusSeed}
	if p.wl == wlEngineNovel {
		err = d.bootSingle(opts, sink)
	} else {
		err = d.bootRouted(opts, dir, sink)
	}
	if err != nil {
		return d, err
	}
	// "Boot to first good reply": one real query through the entry point.
	if err := firstReply(d.entry, p.queryBody[0]); err != nil {
		return d, fmt.Errorf("first reply: %w", err)
	}
	d.setupS = time.Since(start).Seconds()
	return d, nil
}

func firstReply(entry string, body []byte) error {
	resp, err := http.Post(entry+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func (d *deployment) bootSingle(opts anns.Options, sink *spanSink) error {
	p := d.plan
	t0 := time.Now()
	ix, err := anns.Build(p.dbPoints(), opts)
	if err != nil {
		return err
	}
	d.buildS = time.Since(t0).Seconds()
	d.single = ix
	n, err := d.serve(ix, server.Config{Dimension: p.sz.Dim}, sink)
	if err != nil {
		return err
	}
	n.static = ix
	d.nodes = [][]*node{{n}}
	d.entry = n.url
	return nil
}

// serve boots one shard server over idx.
func (d *deployment) serve(idx server.Searcher, cfg server.Config, sink *spanSink) (*node, error) {
	srv, err := server.New(idx, cfg)
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, srv.Close)
	n := &node{srv: srv}
	n.url, err = d.listen(spanServer, srv.Handler(), sink)
	return n, err
}

func (d *deployment) bootRouted(opts anns.Options, dir string, sink *spanSink) error {
	p := d.plan
	S, R := p.sz.Shards, p.sz.Replicas
	t0 := time.Now()
	sx, err := anns.BuildSharded(p.dbPoints(), S, opts)
	if err != nil {
		return err
	}
	d.buildS = time.Since(t0).Seconds()
	d.sharded = sx

	// The `annsctl shard-split` layout: one snapshot per shard + manifest.
	t0 = time.Now()
	m := &router.Manifest{
		FormatVersion: router.ManifestVersion,
		Placement:     router.PlacementRoundRobin,
		Shards:        S,
		N:             sx.Len(),
		Dimension:     p.sz.Dim,
		Seed:          sx.Options().Seed,
	}
	for s := 0; s < S; s++ {
		name := fmt.Sprintf("shard-%d.snap", s)
		size, err := saveIndex(filepath.Join(dir, name), sx.Shard(s))
		if err != nil {
			return err
		}
		d.snapBytes += size
		m.Files = append(m.Files, router.ManifestShard{
			Shard: s, Path: name, N: sx.Shard(s).Len(), Seed: sx.Shard(s).Options().Seed,
		})
	}
	mpath := filepath.Join(dir, "manifest.json")
	if err := router.WriteManifest(mpath, m); err != nil {
		return err
	}
	d.saveS = time.Since(t0).Seconds()
	loaded, err := router.LoadManifest(mpath)
	if err != nil {
		return err
	}

	mutable := p.wl == wlChurn
	urls := make([][]string, S)
	sizes := make([]int, S)
	seeds := make([]uint64, S)
	d.nodes = make([][]*node, S)
	for s := 0; s < S; s++ {
		sizes[s], seeds[s] = loaded.Files[s].N, loaded.Files[s].Seed
		for r := 0; r < R; r++ {
			path := loaded.ShardPath(mpath, s)
			var n *node
			t0 := time.Now()
			if mutable {
				n, err = d.bootMutableReplica(path, filepath.Join(dir, fmt.Sprintf("wal-%d-%d.log", s, r)), sink)
			} else {
				n, err = d.bootStaticReplica(path, sink)
			}
			if err != nil {
				return fmt.Errorf("shard %d replica %d: %w", s, r, err)
			}
			d.openS += time.Since(t0).Seconds()
			d.nodes[s] = append(d.nodes[s], n)
			urls[s] = append(urls[s], n.url)
		}
	}

	// Production defaults throughout; only topology, cache size and the
	// durability level are set.
	cfg := router.Config{
		Dimension:    p.sz.Dim,
		N:            loaded.N,
		Replicas:     urls,
		ShardSeeds:   seeds,
		CacheEntries: p.sz.Cache,
		Manifest:     loaded,
	}
	if mutable {
		cfg.Durability = router.DurabilityPrimary
	} else {
		cfg.ShardSizes = sizes
	}
	rt, err := router.New(cfg)
	if err != nil {
		return err
	}
	d.rt = rt
	d.closers = append(d.closers, rt.Close)
	d.entry, err = d.listen(spanRouter, rt.Handler(), sink)
	return err
}

func saveIndex(path string, ix *anns.Index) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := anns.SaveIndex(f, ix); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// bootStaticReplica is `annsd -snapshot <file>` with mmap serving.
func (d *deployment) bootStaticReplica(path string, sink *spanSink) (*node, error) {
	t0 := time.Now()
	l, err := anns.OpenSnapshot(path, anns.LoadAuto)
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { l.Close() })
	n, err := d.serve(l.Index, server.Config{
		Dimension:    d.plan.sz.Dim,
		CacheEntries: d.plan.sz.Cache,
		Index:        server.IndexInfo{Source: l.Source, LoadDuration: time.Since(t0), Path: path, MappedBytes: l.MappedBytes},
	}, sink)
	if err != nil {
		return nil, err
	}
	n.static = l.Index
	return n, nil
}

// bootMutableReplica is `annsd -mutable -base-snapshot <file> -wal <wal>`:
// an immutable heap-loaded base plus the replica's own fsynced WAL.
func (d *deployment) bootMutableReplica(path, wal string, sink *spanSink) (*node, error) {
	t0 := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	base, err := anns.LoadIndex(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	mx, err := anns.NewMutable(base, anns.MutableConfig{
		MemtableCap:  d.plan.sz.MemtableCap,
		CompactEvery: d.plan.sz.CompactEvery,
		WALPath:      wal,
		WALSyncEvery: 1,
	})
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { mx.Close() })
	n, err := d.serve(mx, server.Config{
		Dimension:    d.plan.sz.Dim,
		CacheEntries: d.plan.sz.Cache,
		Index:        server.IndexInfo{Source: "snapshot", LoadDuration: time.Since(t0), Path: path},
	}, sink)
	if err != nil {
		return nil, err
	}
	n.mx, n.wal = mx, wal
	return n, nil
}
