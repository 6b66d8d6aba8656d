// Command annsload is the load harness for cmd/annsd: it regenerates the
// same workload the server indexed (same generator flags + seed, or the
// same `annsctl gen` dataset), drives /v1/query under closed-loop or open-loop
// (Poisson) arrivals with an optional target-QPS ramp, and reports
// client-side latency quantiles, achieved QPS, recall against the ground
// truth, and the aggregate cell-probe accounting — finishing with the
// server's own /statsz counters.
//
// Usage:
//
//	annsload -addr http://127.0.0.1:7080 -mode closed -conc 16 -queries 10000
//	annsload -addr http://127.0.0.1:7080 -mode open -qps 800 -ramp 4 -queries 20000
//	annsload -addr http://127.0.0.1:7080 -scenario hot-key-reads -skew 0.99 -queries 20000
//	annsload -addr http://127.0.0.1:7080 -write-ratio 0.2 -delete-ratio 0.05 -queries 20000
//	annsload -addr http://127.0.0.1:7120 -compare http://127.0.0.1:7080 -queries 256
//
// The target may be an annsd shard server or an annsrouter coordinator —
// both speak the same wire schema, and /statsz router rollups (hedge
// rate, per-shard quantiles, replica state) are printed when present.
//
// With -write-ratio (and optionally -delete-ratio) the operation stream
// mixes mutations into the load — inserts of perturbed database points
// via /v1/insert, deletes of previously inserted points via /v1/delete
// (the target must be an `annsd -mutable` server) — and the report adds
// write-latency quantiles plus recall measured against a ground truth
// that tracks the churn (every acknowledged insert joins the oracle's
// candidate set, every acknowledged delete leaves it).
//
// -scenario selects a named operation mix from internal/workload/scenario
// (hot-key-reads, hotspot-deletes, scan-insert-churn, constant-occupancy,
// uniform), with -skew setting the zipfian θ of its skewed key
// generators. The whole schedule — op kinds AND key choices — derives
// deterministically from -lseed, so two runs (or the two sides of a
// -compare) replay the identical stream. -write-ratio / -delete-ratio,
// when set, override the scenario's mix; the default scenario "uniform"
// with no overrides reproduces the classic uniform read-only stream.
//
// Latency is reported from log-bucketed histograms (internal/stats): every
// observation is recorded, so p50/p95/p99 come from the full distribution
// (≤ 4.4% relative bucket error, exact min/max) and the report prints the
// histogram itself — the tail shape, not just three numbers.
//
// With -compare, every operation goes to both servers and the answers
// must be byte-identical — queries field for field (index, distance,
// rounds, probes, max_parallel), inserts by assigned ID, deletes by
// outcome. For mutation streams both servers should run -mutable-sync
// so the segment state evolves deterministically with the stream. The
// first diverging operation is printed with both sides' replication
// state from /statsz (per-replica applied offsets on a router, the
// single applied offset on a mutable shard server), which separates a
// lagging replica (offsets differ) from a real engine divergence
// (offsets converged but answers don't).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/hamming"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:7080", "annsd base URL")
	in := flag.String("in", "", "dataset file the server was started with (overrides generator flags)")
	spec := workload.DefaultSpec()
	spec.RegisterFlags(flag.CommandLine)

	mode := flag.String("mode", "closed", "closed (fixed concurrency) | open (Poisson arrivals)")
	conc := flag.Int("conc", 16, "closed-loop concurrency")
	qps := flag.Float64("qps", 500, "open-loop target arrival rate (final ramp step)")
	ramp := flag.Int("ramp", 1, "open-loop ramp steps up to -qps (1 = constant rate)")
	total := flag.Int("queries", 10000, "total queries to issue")
	gamma := flag.Float64("gamma", 2, "approximation ratio for the recall criterion")
	timeoutMS := flag.Int("timeout-ms", 0, "per-request timeout_ms sent to the server (0 = server default)")
	outstanding := flag.Int("max-outstanding", 1024, "open-loop cap on in-flight requests")
	lseed := flag.Int64("lseed", 1, "load generator seed (Poisson arrivals, op mix, key choices)")
	scenarioName := flag.String("scenario", "uniform", "named operation-mix scenario from internal/workload/scenario")
	skew := flag.Float64("skew", 0.99, "zipfian θ for the scenario's skewed key generators (0 = uniform)")
	compare := flag.String("compare", "", "second server URL: issue every operation to both and require byte-identical answers")
	writeRatio := flag.Float64("write-ratio", 0, "fraction of operations that are /v1/insert (mutable servers)")
	deleteRatio := flag.Float64("delete-ratio", 0, "fraction of operations that are /v1/delete of previously inserted points")
	writeDist := flag.Int("write-dist", 0, "Hamming distance of inserted perturbations (0 = the workload's -dist)")
	flag.Parse()

	var inst *workload.Instance
	var err error
	if *in != "" {
		inst, err = dataset.Load(*in)
	} else {
		inst, err = spec.Generate()
	}
	if err != nil {
		log.Fatalf("annsload: %v", err)
	}
	if len(inst.Queries) == 0 {
		log.Fatalf("annsload: workload has no queries")
	}
	log.Printf("workload: %s", inst)

	// Size the connection pool for whichever mode bounds concurrency, or
	// open-loop bursts past the pool churn TCP handshakes into the very
	// latencies being measured.
	pool := 2 * *conc
	if *mode == "open" && *outstanding > pool {
		pool = *outstanding
	}
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        pool,
			MaxIdleConnsPerHost: pool,
		},
	}
	checkHealth(client, *addr, inst)

	// Pre-encode the query stream once; the run cycles through it.
	encoded := make([][]byte, len(inst.Queries))
	for i, q := range inst.Queries {
		body, err := json.Marshal(server.QueryRequest{
			Point:     server.EncodePoint(q.X),
			TimeoutMS: *timeoutMS,
		})
		if err != nil {
			log.Fatalf("annsload: %v", err)
		}
		encoded[i] = body
	}

	sc, err := scenario.Get(*scenarioName)
	if err != nil {
		log.Fatalf("annsload: %v", err)
	}
	mix := *sc
	if *writeRatio != 0 || *deleteRatio != 0 {
		if *writeRatio < 0 || *deleteRatio < 0 || *writeRatio+*deleteRatio > 1 {
			log.Fatalf("annsload: -write-ratio %v and -delete-ratio %v must be non-negative and sum to at most 1", *writeRatio, *deleteRatio)
		}
		mix.InsertRatio, mix.DeleteRatio = *writeRatio, *deleteRatio
	}
	plan, err := buildPlan(inst, &mix, *total, *writeDist, *skew, *lseed)
	if err != nil {
		log.Fatalf("annsload: %v", err)
	}

	if *compare != "" {
		checkHealth(client, *compare, inst)
		runCompare(client, *addr, *compare, encoded, *total, plan)
		return
	}

	run := &runner{
		client:  client,
		base:    *addr,
		url:     *addr + "/v1/query",
		inst:    inst,
		encoded: encoded,
		gamma:   *gamma,
		plan:    plan,
	}

	start := time.Now()
	switch *mode {
	case "closed":
		run.closedLoop(*conc, *total)
	case "open":
		run.openLoop(*qps, *ramp, *total, *outstanding, *lseed)
	default:
		log.Fatalf("annsload: unknown -mode %q", *mode)
	}
	wall := time.Since(start)

	fmt.Printf("\n=== aggregate (%s loop, scenario %q, %d operations in %v) ===\n",
		*mode, plan.scenario, *total, wall.Round(time.Millisecond))
	run.report(run.all(), wall)
	run.reportWrites()
	if n, h, a, w := atomic.LoadInt64(&run.netErrs), atomic.LoadInt64(&run.httpErrs), atomic.LoadInt64(&run.appErrs), atomic.LoadInt64(&run.writeFails); n+h+a+w > 0 {
		fmt.Printf("failures: net=%d http=%d app=%d write=%d\n", n, h, a, w)
	}
	printServerStats(client, *addr)
}

// checkHealth verifies the server is up and serving the same instance.
func checkHealth(client *http.Client, addr string, inst *workload.Instance) {
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		log.Fatalf("annsload: server unreachable: %v", err)
	}
	defer resp.Body.Close()
	var h server.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		log.Fatalf("annsload: bad /healthz body: %v", err)
	}
	log.Printf("server: status=%s n=%d shards=%d dim=%d", h.Status, h.N, h.Shards, h.Dim)
	if h.Dim != inst.D || h.N != len(inst.DB) {
		log.Printf("WARNING: server instance (n=%d, d=%d) differs from local workload (n=%d, d=%d); recall will be meaningless",
			h.N, h.Dim, len(inst.DB), inst.D)
	}
}

// mixedPlan is the deterministic operation schedule of a run, expanded
// from a workload scenario: ops[i] decides operation i's kind and key,
// queryOf[i] maps a read to its query ordinal, and insertPts/insertBodies
// hold one pre-generated perturbed point (and its encoded /v1/insert
// body) per insert op, in op order. Both load-run and compare modes
// consume the same plan, which is what lets -compare drive an identical
// stream into two servers.
type mixedPlan struct {
	scenario     string
	ops          []scenario.Op
	queryOf      []int // op index -> query ordinal (-1 for non-reads)
	insertOf     []int // op index -> insert ordinal (-1 for non-inserts)
	insertPts    []bitvec.Vector
	insertBodies [][]byte
	inserts      int
	deletes      int
}

// buildPlan expands the scenario into a concrete schedule: read keys
// index the query stream, insert keys pick the database point to perturb
// (so skewed write generators concentrate churn on hot regions).
// Everything derives from -lseed.
func buildPlan(inst *workload.Instance, sc *scenario.Scenario, total, writeDist int, theta float64, lseed int64) (*mixedPlan, error) {
	if writeDist <= 0 {
		writeDist = 16
	}
	if writeDist > inst.D {
		writeDist = inst.D
	}
	ops := sc.Ops(total, scenario.Config{
		Seed:      uint64(lseed),
		Theta:     theta,
		QueryKeys: len(inst.Queries),
		WriteKeys: len(inst.DB),
	})
	p := &mixedPlan{
		scenario: sc.Name,
		ops:      ops,
		queryOf:  make([]int, total),
		insertOf: make([]int, total),
	}
	src := rng.New(uint64(lseed) + 0x10ad)
	for i, op := range ops {
		p.queryOf[i], p.insertOf[i] = -1, -1
		switch op.Kind {
		case scenario.OpInsert:
			p.insertOf[i] = len(p.insertPts)
			pt := hamming.AtDistance(src, inst.DB[op.Key], inst.D, writeDist)
			body, err := json.Marshal(server.InsertRequest{Point: server.EncodePoint(pt)})
			if err != nil {
				return nil, err
			}
			p.insertPts = append(p.insertPts, pt)
			p.insertBodies = append(p.insertBodies, body)
			p.inserts++
		case scenario.OpDelete:
			p.deletes++
		default:
			p.queryOf[i] = op.Key
		}
	}
	log.Printf("plan: scenario %q (θ=%g, seed %d): %d reads, %d inserts, %d deletes (write-dist %d)",
		sc.Name, theta, lseed, total-p.inserts-p.deletes, p.inserts, p.deletes, writeDist)
	return p, nil
}

// sample is one completed request, as the reporter consumes it.
type sample struct {
	latency time.Duration
	ok      bool // transport + HTTP + query all succeeded
	good    bool // γ-approximate vs ground truth
	probes  int
	rounds  int
	maxPar  int
}

// liveInsert is an acknowledged insert: part of the recall oracle's
// candidate set and a potential delete target.
type liveInsert struct {
	id uint64
	pt bitvec.Vector
}

type runner struct {
	client  *http.Client
	base    string
	url     string
	inst    *workload.Instance
	encoded [][]byte
	gamma   float64
	plan    *mixedPlan

	mu       sync.Mutex
	samples  []sample
	netErrs  int64
	httpErrs int64
	appErrs  int64

	wmu          sync.Mutex
	writeSamples []sample
	live         []liveInsert
	writeFails   int64
}

// issue runs operation i of the stream and records the outcome.
func (r *runner) issue(i int) {
	switch r.plan.ops[i].Kind {
	case scenario.OpInsert:
		r.issueInsert(i)
		return
	case scenario.OpDelete:
		if r.issueDelete() {
			return
		}
		// Nothing live to delete yet: degrade to a query so the op
		// count stays honest.
	}
	r.issueQuery(i)
}

// issueInsert posts one planned insert and, on success, adds the point
// to the live set (recall oracle + delete pool).
func (r *runner) issueInsert(i int) {
	ins := r.plan.insertOf[i]
	t0 := time.Now()
	resp, err := r.client.Post(r.base+"/v1/insert", "application/json",
		bytes.NewReader(r.plan.insertBodies[ins]))
	lat := time.Since(t0)
	s := sample{latency: lat}
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		var ack server.InsertResponse
		if rerr == nil && resp.StatusCode == http.StatusOK && json.Unmarshal(body, &ack) == nil {
			s.ok = true
			r.wmu.Lock()
			r.live = append(r.live, liveInsert{id: ack.ID, pt: r.plan.insertPts[ins]})
			r.wmu.Unlock()
		}
	}
	if !s.ok {
		atomic.AddInt64(&r.writeFails, 1)
	}
	r.recordWrite(s)
}

// issueDelete pops a live insert and deletes it, reporting false when
// none is available.
func (r *runner) issueDelete() bool {
	r.wmu.Lock()
	if len(r.live) == 0 {
		r.wmu.Unlock()
		return false
	}
	target := r.live[0]
	r.live = r.live[1:]
	r.wmu.Unlock()
	body, err := json.Marshal(server.DeleteRequest{ID: &target.id})
	if err != nil {
		atomic.AddInt64(&r.writeFails, 1)
		return true
	}
	t0 := time.Now()
	resp, err := r.client.Post(r.base+"/v1/delete", "application/json", bytes.NewReader(body))
	lat := time.Since(t0)
	s := sample{latency: lat}
	if err == nil {
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		var ack server.DeleteResponse
		s.ok = rerr == nil && resp.StatusCode == http.StatusOK &&
			json.Unmarshal(raw, &ack) == nil && ack.Deleted
	}
	if !s.ok {
		atomic.AddInt64(&r.writeFails, 1)
	}
	r.recordWrite(s)
	return true
}

func (r *runner) recordWrite(s sample) {
	r.wmu.Lock()
	r.writeSamples = append(r.writeSamples, s)
	r.wmu.Unlock()
}

// truthDist returns the oracle nearest-neighbor distance for query qi
// at this moment: the precomputed base ground truth, tightened by every
// acknowledged insert still live. (Churn makes this a snapshot, not a
// certainty — an insert acked after the snapshot can only shrink the
// server's answer, which passes the γ bound a fortiori; deletes only
// loosen the bound.)
func (r *runner) truthDist(qi int) float64 {
	truth := float64(r.inst.Queries[qi].NNDist)
	if r.plan.inserts == 0 {
		return truth
	}
	x := r.inst.Queries[qi].X
	r.wmu.Lock()
	for _, li := range r.live {
		if d := float64(bitvec.Distance(li.pt, x)); d < truth {
			truth = d
		}
	}
	r.wmu.Unlock()
	return truth
}

// issueQuery sends the scenario-chosen query for op i and records the
// outcome.
func (r *runner) issueQuery(i int) {
	qi := r.plan.queryOf[i]
	if qi < 0 {
		// A delete degraded to a read: derive a stable query index from
		// the op's key so the schedule stays deterministic.
		qi = r.plan.ops[i].Key % len(r.encoded)
	}
	// Snapshot the oracle bound before sending: acked mutations racing the
	// query can only move the server's answer inside the bound.
	truth := r.truthDist(qi)
	t0 := time.Now()
	resp, err := r.client.Post(r.url, "application/json", bytes.NewReader(r.encoded[qi]))
	lat := time.Since(t0)
	s := sample{latency: lat}
	if err != nil {
		atomic.AddInt64(&r.netErrs, 1)
		r.record(s)
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		atomic.AddInt64(&r.httpErrs, 1)
		r.record(s)
		return
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		atomic.AddInt64(&r.httpErrs, 1)
		r.record(s)
		return
	}
	s.probes, s.rounds, s.maxPar = qr.Probes, qr.Rounds, qr.MaxParallel
	if qr.Error != "" {
		atomic.AddInt64(&r.appErrs, 1)
		r.record(s)
		return
	}
	s.ok = true
	s.good = qr.Index >= 0 && float64(qr.Distance) <= r.gamma*truth
	r.record(s)
}

func (r *runner) record(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

func (r *runner) all() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sample(nil), r.samples...)
}

func (r *runner) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// closedLoop keeps conc requests in flight until total have been issued.
func (r *runner) closedLoop(conc, total int) {
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= total {
					return
				}
				r.issue(i)
			}
		}()
	}
	wg.Wait()
}

// openLoop issues total queries with Poisson arrivals, ramping the target
// rate over steps equal slices up to qps. Arrivals beyond the in-flight
// cap block the arrival process (and show up as a QPS shortfall in the
// report rather than as client-side meltdown).
func (r *runner) openLoop(qps float64, steps, total, maxOutstanding int, seed int64) {
	if steps < 1 {
		steps = 1
	}
	if qps <= 0 {
		log.Fatalf("annsload: open loop needs -qps > 0")
	}
	rnd := rand.New(rand.NewSource(seed))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	issued := 0
	for s := 0; s < steps; s++ {
		rate := qps * float64(s+1) / float64(steps)
		stepTotal := total / steps
		if s == steps-1 {
			stepTotal = total - issued
		}
		stepStart := time.Now()
		before := r.count()
		next := time.Now()
		for i := 0; i < stepTotal; i++ {
			next = next.Add(time.Duration(rnd.ExpFloat64() / rate * float64(time.Second)))
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r.issue(i)
				<-sem
			}(issued + i)
		}
		issued += stepTotal
		wg.Wait()
		stepWall := time.Since(stepStart)
		fmt.Printf("\n--- ramp step %d/%d: target %.0f qps, %d queries ---\n", s+1, steps, rate, stepTotal)
		r.report(r.all()[before:], stepWall)
	}
}

// report prints the latency/recall/accounting summary for one sample set.
func (r *runner) report(ss []sample, wall time.Duration) {
	if len(ss) == 0 {
		fmt.Println("no samples")
		return
	}
	// Quantiles cover successful requests only: a 503 rejection returns
	// near-instantly and a transport error can take the full client
	// timeout, and either would distort the latency admitted queries saw.
	// Every successful observation lands in a log-bucketed histogram, so
	// the quantiles are computed over the full distribution (within the
	// ≤4.4% bucket resolution), not a sample.
	hist := stats.NewLatencyHistogram()
	probes := make([]int, 0, len(ss))
	recall := stats.Proportion{}
	totalProbes, maxRounds, maxPar, okCount := 0, 0, 0, 0
	for _, s := range ss {
		if s.ok {
			okCount++
			hist.Record(float64(s.latency.Nanoseconds()))
			probes = append(probes, s.probes)
			totalProbes += s.probes
			if s.rounds > maxRounds {
				maxRounds = s.rounds
			}
			if s.maxPar > maxPar {
				maxPar = s.maxPar
			}
			recall.Trials++
			if s.good {
				recall.Successes++
			}
		}
	}
	fmt.Printf("queries: %d ok, %d failed   achieved QPS: %.1f\n",
		okCount, len(ss)-okCount, float64(len(ss))/wall.Seconds())
	if hist.Count() > 0 {
		fmt.Printf("latency ms (ok only): p50=%.2f p95=%.2f p99=%.2f mean=%.2f max=%.2f\n",
			hist.Quantile(0.50)/1e6, hist.Quantile(0.95)/1e6,
			hist.Quantile(0.99)/1e6, hist.Mean()/1e6, hist.Max()/1e6)
		fmt.Print(hist.FormatNanos(12))
	}
	fmt.Printf("recall (γ=%v): %v\n", r.gamma, recall)
	if okCount > 0 {
		fmt.Printf("probes/query: %v   total probes: %d   max rounds: %d   max parallel: %d\n",
			stats.SummarizeInts(probes), totalProbes, maxRounds, maxPar)
	}
}

// reportWrites prints the mutation half of a mixed run: acknowledged
// counts and write-latency quantiles (successful writes only, same rule
// as the read quantiles).
func (r *runner) reportWrites() {
	r.wmu.Lock()
	ws := append([]sample(nil), r.writeSamples...)
	liveLeft := len(r.live)
	r.wmu.Unlock()
	if len(ws) == 0 {
		return
	}
	hist := stats.NewLatencyHistogram()
	okCount := 0
	for _, s := range ws {
		if s.ok {
			okCount++
			hist.Record(float64(s.latency.Nanoseconds()))
		}
	}
	fmt.Printf("writes: %d ok, %d failed (%d inserts, %d deletes planned; %d inserted points still live)\n",
		okCount, len(ws)-okCount, r.plan.inserts, r.plan.deletes, liveLeft)
	if hist.Count() > 0 {
		fmt.Printf("write latency ms (ok only): p50=%.2f p99=%.2f max=%.2f\n",
			hist.Quantile(0.50)/1e6, hist.Quantile(0.99)/1e6, hist.Max()/1e6)
	}
}

// runCompare issues each query to both servers and requires the decoded
// answers to match field for field — the distributed-equivalence check:
// a router over shard-split snapshots must answer exactly like a
// single-process server over the same corpus, including the cell-probe
// accounting. Exits non-zero on the first mismatch.
func runCompare(client *http.Client, addrA, addrB string, encoded [][]byte, total int, plan *mixedPlan) {
	post := func(addr, path string, body []byte, out any) error {
		resp, err := client.Post(addr+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
		}
		return json.Unmarshal(raw, out)
	}
	mismatches := 0
	mismatch := func(i int, what string, body []byte, a, b any) {
		mismatches++
		label := "MISMATCH"
		if mismatches == 1 {
			// The first diverging request is the repro: op index, the exact
			// request payload, and both decoded answers.
			label = "FIRST DIVERGENCE"
		}
		log.Printf("%s: %s op %d\n  request: %s\n  %s → %+v\n  %s → %+v",
			label, what, i, bytes.TrimSpace(body), addrA, a, addrB, b)
		if mismatches == 1 {
			// Both sides' replication state narrows the repro: offsets
			// that differ point at a lagging replica, offsets that agree
			// while answers don't point at the engines.
			for _, addr := range []string{addrA, addrB} {
				if ro := replicationOffsets(client, addr); ro != "" {
					log.Printf("  %s replication: %s", addr, ro)
				}
			}
		}
		if mismatches >= 10 {
			log.Fatalf("annsload: compare: giving up after %d mismatches", mismatches)
		}
	}
	queries, inserts, deletes := 0, 0, 0
	var live []uint64
	for i := 0; i < total; i++ {
		switch plan.ops[i].Kind {
		case scenario.OpInsert:
			var a, b server.InsertResponse
			body := plan.insertBodies[plan.insertOf[i]]
			if err := post(addrA, "/v1/insert", body, &a); err != nil {
				log.Fatalf("annsload: compare: %s insert %d: %v", addrA, i, err)
			}
			if err := post(addrB, "/v1/insert", body, &b); err != nil {
				log.Fatalf("annsload: compare: %s insert %d: %v", addrB, i, err)
			}
			if a.ID != b.ID {
				mismatch(i, "insert", body, a, b)
			}
			live = append(live, a.ID)
			inserts++
		case scenario.OpDelete:
			if len(live) == 0 {
				continue
			}
			id := live[0]
			live = live[1:]
			body, err := json.Marshal(server.DeleteRequest{ID: &id})
			if err != nil {
				log.Fatalf("annsload: compare: %v", err)
			}
			var a, b server.DeleteResponse
			if err := post(addrA, "/v1/delete", body, &a); err != nil {
				log.Fatalf("annsload: compare: %s delete %d: %v", addrA, i, err)
			}
			if err := post(addrB, "/v1/delete", body, &b); err != nil {
				log.Fatalf("annsload: compare: %s delete %d: %v", addrB, i, err)
			}
			// Compare the answer (deleted or not), never the offset: that
			// is a server-local WAL position, legitimately different
			// between a replicated cluster and a WAL-less reference.
			if a.Deleted != b.Deleted {
				mismatch(i, "delete", body, a, b)
			}
			deletes++
		default:
			var a, b server.QueryResponse
			qi := plan.queryOf[i]
			if qi < 0 {
				qi = plan.ops[i].Key % len(encoded)
			}
			body := encoded[qi]
			if err := post(addrA, "/v1/query", body, &a); err != nil {
				log.Fatalf("annsload: compare: %s query %d: %v", addrA, i, err)
			}
			if err := post(addrB, "/v1/query", body, &b); err != nil {
				log.Fatalf("annsload: compare: %s query %d: %v", addrB, i, err)
			}
			if a != b {
				mismatch(i, "query", body, a, b)
			}
			queries++
		}
	}
	if mismatches > 0 {
		log.Fatalf("annsload: compare: %d/%d answers differ", mismatches, total)
	}
	if inserts+deletes > 0 {
		fmt.Printf("compare: scenario %q: %d queries + %d inserts + %d deletes, answers byte-identical (results, accounting, assigned IDs)\n",
			plan.scenario, queries, inserts, deletes)
	} else {
		fmt.Printf("compare: scenario %q: %d queries, answers byte-identical (results + rounds/probes accounting)\n",
			plan.scenario, queries)
	}
	printServerStats(client, addrA)
}

// replicationOffsets summarizes one side's /statsz replication state for
// the divergence repro: the placement epoch and per-replica applied
// offsets (primary starred) on a router, the single applied offset on a
// mutable shard server. Empty when the target has no replication state
// (immutable snapshots).
func replicationOffsets(client *http.Client, addr string) string {
	resp, err := client.Get(addr + "/statsz")
	if err != nil {
		return fmt.Sprintf("statsz unreachable: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Sprintf("statsz read: %v", err)
	}
	if bytes.Contains(raw, []byte(`"shard_stats"`)) {
		var rs router.Stats
		if err := json.Unmarshal(raw, &rs); err != nil {
			return fmt.Sprintf("bad router statsz: %v", err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "epoch=%d writes=%d replicated_frames=%d replication_errors=%d promotions=%d",
			rs.Epoch, rs.Writes, rs.ReplicatedFrames, rs.ReplicationErrs, rs.Promotions)
		for _, sh := range rs.ShardStats {
			fmt.Fprintf(&b, "; shard %d:", sh.Shard)
			for _, rep := range sh.ReplicaStats {
				star := ""
				if rep.Primary {
					star = "*"
				}
				fmt.Fprintf(&b, " %s%s@%d", rep.URL, star, rep.ReplicationOffset)
			}
		}
		return b.String()
	}
	var snap server.StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Sprintf("bad statsz: %v", err)
	}
	if snap.Mutable == nil {
		return ""
	}
	return fmt.Sprintf("replication_offset=%d generation=%d",
		snap.Mutable.ReplicationOffset, snap.Mutable.Generation)
}

// printServerStats fetches /statsz so the report ends with the server's
// own view in the shared stats schema. A router target is detected by
// its shard_stats rollup and gets the distribution-layer report too.
func printServerStats(client *http.Client, addr string) {
	resp, err := client.Get(addr + "/statsz")
	if err != nil {
		log.Printf("annsload: /statsz unreachable: %v", err)
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Printf("annsload: /statsz read: %v", err)
		return
	}
	if bytes.Contains(raw, []byte(`"shard_stats"`)) {
		var rs router.Stats
		if err := json.Unmarshal(raw, &rs); err != nil {
			log.Printf("annsload: bad router /statsz body: %v", err)
			return
		}
		fmt.Printf("\n=== router /statsz ===\n")
		fmt.Printf("queries=%d near=%d batches=%d errors=%d rejected=%d in_flight=%d qps=%.1f\n",
			rs.Queries, rs.Near, rs.Batches, rs.Errors, rs.Rejected, rs.InFlight, rs.QPS)
		fmt.Printf("probes=%d rounds=%d max_rounds=%d max_parallel=%d\n",
			rs.Probes, rs.Rounds, rs.MaxRounds, rs.MaxParallel)
		fmt.Printf("hedges=%d wins=%d rate=%.4f failovers=%d\n",
			rs.Hedges, rs.HedgeWins, rs.HedgeRate, rs.Failovers)
		if rs.Writes+rs.WriteErrors+rs.Promotions > 0 {
			fmt.Printf("writes=%d write_errors=%d replicated_frames=%d replication_errors=%d promotions=%d epoch=%d durability=%s\n",
				rs.Writes, rs.WriteErrors, rs.ReplicatedFrames, rs.ReplicationErrs, rs.Promotions, rs.Epoch, rs.Durability)
		}
		printCacheStats(rs.Cache)
		for _, sh := range rs.ShardStats {
			fmt.Printf("shard %d: %d/%d replicas healthy, %d reqs (%d errors, %d hedges, %d failovers), p50=%.2fms p95=%.2fms p99=%.2fms\n",
				sh.Shard, sh.Healthy, sh.Replicas, sh.Requests, sh.Errors, sh.Hedges, sh.Failovers,
				sh.P50MS, sh.P95MS, sh.P99MS)
			for _, rep := range sh.ReplicaStats {
				fmt.Printf("  %s: %s (fails=%d evictions=%d backoff=%dms)", rep.URL, rep.State, rep.Fails, rep.Evictions, rep.BackoffMS)
				if rep.Primary {
					fmt.Printf("  primary offset=%d", rep.ReplicationOffset)
				} else if rep.ReplicationOffset > 0 {
					fmt.Printf("  offset=%d", rep.ReplicationOffset)
				}
				if rep.LastError != "" {
					fmt.Printf("  %s", rep.LastError)
				}
				fmt.Println()
			}
		}
		return
	}
	var snap server.StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		log.Printf("annsload: bad /statsz body: %v", err)
		return
	}
	fmt.Printf("\n=== server /statsz ===\n")
	fmt.Printf("queries=%d near=%d batches=%d errors=%d rejected=%d deadline_exceeded=%d\n",
		snap.Queries, snap.Near, snap.Batches, snap.Errors, snap.Rejected, snap.DeadlineExceeded)
	fmt.Printf("probes=%d rounds=%d max_rounds=%d max_parallel=%d qps=%.1f error_rate=%.4f workers=%d\n",
		snap.Probes, snap.Rounds, snap.MaxRounds, snap.MaxParallel, snap.QPS, snap.ErrorRate, snap.Workers)
	if snap.IndexSource == "snapshot" {
		fmt.Printf("index: loaded from snapshot (format v%d) in %dms\n", snap.SnapshotVersion, snap.IndexLoadMS)
	} else {
		fmt.Printf("index: %s in %dms\n", snap.IndexSource, snap.IndexLoadMS)
	}
	if snap.Mutable != nil {
		fmt.Printf("mutable: live_n=%d memtable=%d segments=%d generation=%d replication_offset=%d\n",
			snap.Mutable.LiveN, snap.Mutable.Memtable, snap.Mutable.SealedSegments, snap.Mutable.Generation,
			snap.Mutable.ReplicationOffset)
	}
	printCacheStats(snap.Cache)
}

// printCacheStats prints the /statsz result-cache block shared by shard
// servers and routers (silent when caching is disabled).
func printCacheStats(c *server.CacheStats) {
	if c == nil {
		return
	}
	fmt.Printf("cache: hits=%d misses=%d hit_rate=%.4f evictions=%d invalidations=%d entries=%d/%d\n",
		c.Hits, c.Misses, c.HitRate, c.Evictions, c.Invalidations, c.Entries, c.Capacity)
}
