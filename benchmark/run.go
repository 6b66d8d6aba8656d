package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/router"
)

// soloShare is the part of a timed run spent in the 1-client phase; the
// rest is the nproc-client phase.
const soloShare = 0.4

// runConfig is one invocation's settings.
type runConfig struct {
	wl      string
	seed    uint64
	seconds float64
	quick   bool
	outDir  string // result and trace files, and scratch space for snapshots and WALs
}

func (c runConfig) sizes() sizes {
	if c.quick {
		return quickSizes(c.wl)
	}
	return fullSizes(c.wl)
}

// runResult is one workload's timed or traced run, as printed and as
// stored in the result file.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Mode      string                 `json:"mode"` // "timed" | "traced"
	Quick     bool                   `json:"quick,omitempty"`
	Digest    string                 `json:"input_digest"`
	Phases    []phaseResult          `json:"phases"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     map[string]string      `json:"notes,omitempty"`
	Correct   bool                   `json:"correct"`
	Errors    []string               `json:"errors,omitempty"`
	ElapsedS  float64                `json:"elapsed_s"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
}

// scratchDir makes a fresh directory under outDir for one boot's
// snapshots and WALs.
func scratchDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "run-")
}

// prepared is a warmed-up deployment ready to be measured.
type prepared struct {
	p      *plan
	d      *deployment
	r      *runner
	setups []float64 // setup_s of every boot, the kept one last
	dir    string
}

func (pr *prepared) close() {
	if pr.r != nil {
		pr.r.close()
	}
	pr.d.close()
	os.RemoveAll(pr.dir)
}

// prepare compiles the workload, checks its pinned digest, boots the
// deployment Setups times (keeping the last), builds the oracle and
// warms up. The caller closes the result.
func prepare(cfg runConfig, sink *spanSink) (*prepared, error) {
	t0 := time.Now()
	lap := func(stage string) {
		fmt.Fprintf(os.Stderr, "   [%s %s: %s %.2f s]\n", cfg.wl, time.Now().Format("15:04:05"), stage, time.Since(t0).Seconds())
		t0 = time.Now()
	}
	p, err := compile(cfg.wl, cfg.seed, cfg.sizes())
	if err != nil {
		return nil, err
	}
	if err := checkDigest(cfg, p.digest); err != nil {
		return nil, err
	}
	lap("compile inputs")
	pr := &prepared{p: p}
	for i := 0; i < p.sz.Setups; i++ {
		if pr.d != nil {
			pr.close()
		}
		runtime.GC()
		if pr.dir, err = scratchDir(cfg.outDir); err != nil {
			return nil, err
		}
		if pr.d, err = boot(p, pr.dir, sink); err != nil {
			os.RemoveAll(pr.dir)
			return nil, fmt.Errorf("boot: %w", err)
		}
		pr.setups = append(pr.setups, pr.d.setupS)
	}
	lap(fmt.Sprintf("boot x%d", p.sz.Setups))
	pr.r = newRunner(pr.d, runtime.GOMAXPROCS(0))
	if pr.d.sharded != nil && p.wl != wlChurn {
		pr.r.expect = buildOracle(p, pr.d.sharded)
		lap("oracle")
	}
	if err := pr.r.warmUp(); err != nil {
		pr.close()
		return nil, err
	}
	lap("warm-up")
	return pr, nil
}

// runTimed is the untraced run that produces the end-to-end metrics:
// warm-up, then a solo phase (1 client: critical-path latency, nothing
// contends) and a sat phase (nproc clients back to back: throughput and
// CPU cost).
func runTimed(cfg runConfig) (*runResult, error) {
	t0 := time.Now()
	pr, err := prepare(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer pr.close()
	p, d, r, setups := pr.p, pr.d, pr.r, pr.setups
	res := &runResult{Workload: cfg.wl, Seed: cfg.seed, Mode: "timed", Quick: cfg.quick, Digest: p.digest, Notes: map[string]string{}}

	total := time.Duration(cfg.seconds * float64(time.Second))
	soloD := time.Duration(float64(total) * soloShare)
	solo := r.phase("solo", p.solo, 1, soloD)
	sat := r.phase("sat", p.sat, len(r.clients), total-soloD)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Phases = []phaseResult{solo, sat}

	// Correctness gates.
	res.Errors = r.errors()
	hit, totalReads := r.recall()
	switch p.wl {
	case wlEngineNovel:
		var errs []string
		hit, totalReads, errs = r.verifyBatches()
		res.Errors = append(res.Errors, errs...)
	case wlChurn:
		res.Errors = append(res.Errors, r.verifyChurn()...)
	}
	if solo.Ops == 0 || sat.Ops == 0 || totalReads == 0 {
		res.Errors = append(res.Errors, "a phase completed no operations")
	}

	m := newMetricSet(endToEnd)
	m.put("setup_s", median(setups))
	m.put("ops_per_s", float64(sat.Ops)/sat.WallS)
	m.put("cpu_us_per_op", sat.CPUS*1e6/float64(max(sat.Ops, 1)))
	sl := sortedCopy(solo.readLat)
	m.put("read_p50_us", percentile(sl, 0.5))
	tail, windows, terr := tailPercentile(solo.readLat, p.sz.TailPct)
	if terr != nil {
		if !cfg.quick {
			res.Errors = append(res.Errors, "read_p99_us: "+terr.Error())
		}
		tail = percentile(sl, p.sz.TailPct)
	}
	m.put("read_p99_us", tail)
	res.Notes["read_p50_us"] = fmt.Sprintf("solo p10 %.0f, p25 %.0f, p75 %.0f, p90 %.0f, mean %.0f", percentile(sl, 0.1), percentile(sl, 0.25), percentile(sl, 0.75), percentile(sl, 0.9), mean(sl))
	res.Notes["read_p99_us"] = fmt.Sprintf("p%g over %d solo reads, median of %d windows", p.sz.TailPct*100, len(solo.readLat), windows)
	m.put("heap_mb", float64(ms.HeapInuse)/1e6)
	m.put("recall", float64(hit)/float64(max(totalReads, 1)))
	res.Notes["recall"] = fmt.Sprintf("%d of %d distinct questions answered within gamma x the planted distance", hit, totalReads)
	res.Notes["setup_s"] = fmt.Sprintf("median of %d boots: %v", len(setups), setups)
	if n := len(solo.writeLat); n > 0 {
		s := sortedCopy(solo.writeLat)
		res.Notes["writes"] = fmt.Sprintf("solo write p50 %.1f us, p99 %.1f us over %d writes; largest single latency in sat %.0f us",
			percentile(s, 0.5), percentile(s, 0.99), n, sat.maxLatUS)
	}
	if p.wl == wlChurn {
		var parts []string
		for _, row := range d.nodes {
			for _, n := range row {
				st := n.mx.MutableStats()
				parts = append(parts, fmt.Sprintf("%d/%d/%d", st.ReplicationOffset, st.SegmentsBuilt, st.Compactions))
			}
		}
		res.Notes["compaction"] = fmt.Sprintf("per replica writes/segments built/compactions at the end of sat: %v", parts)
	}
	if d.rt != nil {
		st := d.rt.Stats()
		res.Notes["router"] = fmt.Sprintf("hedges %d, failovers %d, rejected %d, deadline_exceeded %d", st.Hedges, st.Failovers, st.Rejected, st.DeadlineExceeded)
	}
	if missing := m.missing(); len(missing) > 0 {
		return nil, fmt.Errorf("end-to-end metrics not produced: %v", missing)
	}
	res.Metrics = m.complete()
	res.finish(t0)
	return res, nil
}

func (res *runResult) finish(t0 time.Time) {
	for _, ph := range res.Phases {
		res.Attempted += ph.Attempted
		res.Failed += ph.Failed
	}
	res.Correct = len(res.Errors) == 0 && res.Failed == 0
	res.ElapsedS = time.Since(t0).Seconds()
}

// counters is the Stats()-side view of a deployment at one instant; the
// traced run reports deltas of it.
type counters struct {
	rt                          router.Stats
	probes, rejected            int64
	srvHits, srvMisses          uint64
	evictions, invalidations    uint64
	rtHits, rtMisses            uint64
	shardRequests, materialized int64
}

func (d *deployment) counters() counters {
	var c counters
	if d.rt != nil {
		c.rt = d.rt.Stats()
		for _, ss := range c.rt.ShardStats {
			c.shardRequests += ss.Requests
		}
		if cs := c.rt.Cache; cs != nil {
			c.rtHits, c.rtMisses = cs.Hits, cs.Misses
			c.evictions += cs.Evictions
			c.invalidations += cs.Invalidations
		}
	}
	for _, row := range d.nodes {
		for _, n := range row {
			st := n.srv.Stats()
			c.probes += st.Probes
			c.rejected += st.Rejected
			if cs := st.Cache; cs != nil {
				c.srvHits += cs.Hits
				c.srvMisses += cs.Misses
				c.evictions += cs.Evictions
				c.invalidations += cs.Invalidations
			}
			switch {
			case n.static != nil:
				c.materialized += int64(n.static.Space().MaterializedCells)
			case n.mx != nil:
				// Only the base is a lazily simulated table; a compaction swaps
				// it, which shows as a negative delta and is reported as 0.
				if base, _, ok := n.mx.Base(); ok {
					c.materialized += int64(base.Space().MaterializedCells)
				}
			}
		}
	}
	return c
}

func share(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Machine  machine         `json:"machine"`
	Requests []tracedRequest `json:"requests"`
}

// runTraced is the separate traced run that produces the per-layer
// metrics: it replays the first TraceOps solo ops with one client, the
// timing middleware on and X-Anns-Trace set, then an equally long
// untraced stretch for the overhead figure, then the direct rows.
func runTraced(cfg runConfig) (*runResult, error) {
	t0 := time.Now()
	sink := &spanSink{}
	pr, err := prepare(cfg, sink)
	if err != nil {
		return nil, err
	}
	defer pr.close()
	p, d, r := pr.p, pr.d, pr.r
	res := &runResult{Workload: cfg.wl, Seed: cfg.seed, Mode: "traced", Quick: cfg.quick, Digest: p.digest, Notes: map[string]string{}}
	m := newMetricSet(perLayer)
	T := p.sz.TraceOps

	sink.drain() // warm-up spans are not part of the sample
	before := d.counters()
	r.trace = true
	tracedPh := r.phase("traced", p.solo[:T], 1, 0)
	r.trace = false
	after := d.counters()
	raws := sink.drain()
	sink.off.Store(true)
	// The next T ops, not the same ones: a repeated prefix would be served
	// from caches and memos the first pass filled.
	plainPh := r.phase("untraced", p.solo[T:2*T], 1, 0)
	res.Phases = []phaseResult{tracedPh, plainPh}
	res.Errors = r.errors()

	// Join spans into per-request trees.
	sort.Slice(raws, func(i, j int) bool { return raws[i].Start.Before(raws[j].Start) })
	c0 := r.clients[0]
	reqs := make([]tracedRequest, 0, len(c0.traced))
	ri := 0
	var clientUS, unattributedUS float64
	for _, pt := range c0.traced {
		end := pt.start.Add(pt.dur)
		for ri < len(raws) && raws[ri].Start.Before(pt.start) {
			ri++
		}
		var mine []rawSpan
		for ri < len(raws) && !raws[ri].Start.After(end) {
			mine = append(mine, raws[ri])
			ri++
		}
		tr := buildRequest(pt.id, pt.op, pt.start, pt.dur, mine, pt.inner)
		reqs = append(reqs, tr)
		clientUS += tr.Spans[0].DurUS
		unattributedUS += tr.UnattributedUS
	}
	for name, xs := range layerSums(reqs) {
		m.put(name, mean(xs))
	}
	m.put("unattributed_share", share(unattributedUS, clientUS))
	m.put("obs.trace_overhead_share", 1-share(float64(tracedPh.Ops)/tracedPh.WallS, float64(plainPh.Ops)/plainPh.WallS))

	// Counts: Stats() deltas over the traced replay.
	m.put("router.cache_hit_share", share(float64(after.rtHits-before.rtHits), float64(after.rtHits-before.rtHits+after.rtMisses-before.rtMisses)))
	m.put("server.cache_hit_share", share(float64(after.srvHits-before.srvHits), float64(after.srvHits-before.srvHits+after.srvMisses-before.srvMisses)))
	hedges := float64(after.rt.Hedges - before.rt.Hedges)
	m.put("router.hedge_share", share(hedges, float64(after.shardRequests-before.shardRequests)))
	m.put("router.hedge_win_share", share(float64(after.rt.HedgeWins-before.rt.HedgeWins), hedges))
	m.put("router.frames_per_write", share(float64(after.rt.ReplicatedFrames-before.rt.ReplicatedFrames), float64(after.rt.Writes-before.rt.Writes)))
	m.put("router.failovers", float64(after.rt.Failovers-before.rt.Failovers))
	m.put("router.rejected", float64(after.rt.Rejected-before.rt.Rejected))
	m.put("router.deadline_exceeded", float64(after.rt.DeadlineExceeded-before.rt.DeadlineExceeded))
	m.put("server.rejected", float64(after.rejected-before.rejected))
	m.put("qcache.evictions", float64(after.evictions-before.evictions))
	m.put("qcache.invalidations", float64(after.invalidations-before.invalidations))
	if dp := after.probes - before.probes; dp > 0 {
		dm := after.materialized - before.materialized
		if dm < 0 {
			dm = dp
		}
		m.put("cellprobe.memo_hit_share", 1-share(float64(dm), float64(dp)))
	}
	if len(plainPh.writeLat) > 0 {
		s := sortedCopy(plainPh.writeLat)
		m.put("write_p50_us", percentile(s, 0.5))
		m.put("write_p99_us", percentile(s, 0.99))
		m.put("anns.stall_max_us", max(tracedPh.maxLatUS, plainPh.maxLatUS))
	}

	// Boot-time rows and the direct rows.
	m.put("snapshot.build_s", d.buildS)
	m.put("snapshot.save_ms", d.saveS*1e3)
	m.put("snapshot.open_ms", d.openS*1e3)
	m.put("snapshot.bytes", float64(d.snapBytes))
	dir, err := scratchDir(cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reps := 2000
	if cfg.quick {
		reps = 200
	}
	if err := directMetrics(m, p, d, dir, reps); err != nil {
		res.Errors = append(res.Errors, "direct rows: "+err.Error())
	}
	if p.wl == wlEngineNovel {
		_, _, errs := r.verifyBatches()
		res.Errors = append(res.Errors, errs...)
	}
	if p.wl == wlChurn {
		res.Errors = append(res.Errors, r.verifyChurn()...)
	}

	if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+cfg.wl+".json"), traceFile{cfg.wl, cfg.seed, describeMachine(), reqs}); err != nil {
		return nil, err
	}
	res.Notes["trace"] = fmt.Sprintf("%d requests, %d middleware spans", len(reqs), len(raws))
	res.Metrics = m.complete()
	res.finish(t0)
	return res, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
