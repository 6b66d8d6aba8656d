package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/anns"
	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/server"
)

// The load model is a closed loop: callers of this service are
// application servers that wait for each reply, so a client sends its
// next request only after the previous one completes. One generator
// process, at most nproc clients. An op is one query point answered or
// one mutation acknowledged.

// phaseResult is what one phase measured.
type phaseResult struct {
	Name      string    `json:"name"`
	Clients   int       `json:"clients"`
	Attempted int       `json:"attempted"` // requests sent
	Succeeded int       `json:"succeeded"` // 200 replies
	Failed    int       `json:"failed"`    // transport errors and non-200 replies
	Ops       int       `json:"ops"`
	WallS     float64   `json:"wall_s"`
	CPUS      float64   `json:"cpu_s"`
	readLat   []float64 // µs, per request, in completion order per client
	writeLat  []float64
	maxLatUS  float64
}

// insertRec is one acknowledged insert a client may later read back or
// delete.
type insertRec struct {
	id    uint64 // global ID the router assigned
	fresh int32  // index into plan.fresh
}

// ackedWrite is one acknowledged mutation as the shard's primary logged
// it: offset is its 1-based position in that shard's WAL.
type ackedWrite struct {
	offset uint64
	op     segment.Op
}

// clientState is one closed-loop client. Everything it touches in the
// timed loop is its own, so clients share nothing but the deployment.
type clientState struct {
	run  *runner
	id   int
	buf  bytes.Buffer
	res  phaseResult
	seq  int // trace IDs
	errs []string

	// replicated-churn bookkeeping.
	live       []insertRec
	lastInsert *insertRec // most recent acked insert, while it is live
	deleted    *insertRec // acked delete whose point the next read re-queries
	reads      int
	acked      [][]ackedWrite // per shard

	// engine-novel: replies kept for the post-run oracle pass.
	batches []batchReply

	// recall[2*key+near] is 0 until pool key is read, then recallHit or
	// recallMiss: recall is scored per distinct question, so that a zipfian
	// schedule that happens to make a failing key hot cannot swing it.
	recall []uint8

	traced []pendingTrace
}

type batchReply struct {
	batch   int32
	results []server.QueryResponse
}

// pendingTrace is a traced request before its middleware spans are joined.
type pendingTrace struct {
	id    string
	op    string
	start time.Time
	dur   time.Duration
	inner []obs.Span
}

// runner drives one deployment through one workload's phases.
type runner struct {
	d      *deployment
	p      *plan
	httpc  *http.Client
	expect *staticOracle // static routed workloads
	trace  bool          // send X-Anns-Trace and keep the returned spans

	clients []*clientState // persists across phases: churn state carries over
}

func newRunner(d *deployment, nclients int) *runner {
	r := &runner{d: d, p: d.plan, httpc: &http.Client{Transport: &http.Transport{
		MaxIdleConns: 64, MaxIdleConnsPerHost: 64, DisableCompression: true,
	}}}
	for i := 0; i < nclients; i++ {
		r.clients = append(r.clients, &clientState{run: r, id: i, acked: make([][]ackedWrite, d.plan.sz.Shards), recall: make([]uint8, 2*d.plan.sz.Pool)})
	}
	return r
}

func (r *runner) close() { r.httpc.CloseIdleConnections() }

// staticOracle holds the in-process ShardedIndex's answer for every pool
// key: what the routed cluster must reply, field for field.
type staticOracle struct {
	query, near []server.QueryResponse
}

func wireResult(res anns.Result, err error) server.QueryResponse {
	out := server.QueryResponse{Index: res.Index, Distance: res.Distance, Rounds: res.Rounds, Probes: res.Probes, MaxParallel: res.MaxParallel}
	if err != nil {
		out.Error = err.Error()
	}
	return out
}

// sameAnswer compares a reply with the oracle's field for field. Error
// strings are compared by presence only: the router words a failure its
// own way.
func sameAnswer(got, want server.QueryResponse) bool {
	return got.Index == want.Index && got.Distance == want.Distance && got.Rounds == want.Rounds &&
		got.Probes == want.Probes && got.MaxParallel == want.MaxParallel && (got.Error == "") == (want.Error == "")
}

// buildOracle asks the in-process index every pool question, across
// nproc goroutines (each answer is cold once: this is the oracle's own
// memo filling).
func buildOracle(p *plan, sx *anns.ShardedIndex) *staticOracle {
	o := &staticOracle{query: make([]server.QueryResponse, p.sz.Pool), near: make([]server.QueryResponse, p.sz.Pool)}
	parallelFor(p.sz.Pool, func(k int) {
		x := p.inst.Queries[k].X
		o.query[k] = wireResult(sx.Query(x))
		o.near[k] = wireResult(sx.QueryNear(x, p.sz.Lambda))
	})
	return o
}

// parallelFor runs f(0..n-1) over GOMAXPROCS goroutines and waits.
func parallelFor(n int, f func(i int)) {
	w := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += w {
				f(i)
			}
		}(g)
	}
	wg.Wait()
}

// post sends one request and returns the status, the body (valid until
// the client's next request) and the daemon's span header.
func (c *clientState) post(base, path string, body []byte, traceID string) (int, []byte, string, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	t0 := time.Now()
	resp, err := c.run.httpc.Do(req)
	if err != nil {
		return 0, nil, "", time.Since(t0), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, nil, "", lat, err
	}
	return resp.StatusCode, c.buf.Bytes(), resp.Header.Get(obs.SpansHeader), lat, nil
}

func (c *clientState) wrong(format string, args ...any) {
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// do runs one scheduled op: send, time, verify.
func (c *clientState) do(o op) {
	p := c.run.p
	var path string
	var body []byte
	kind := o.Kind
	key := int(o.Key)
	var probe *insertRec // churn: a read aimed at one of this client's own writes
	probeDeleted := false
	switch kind {
	case opQuery:
		path, body = "/v1/query", p.queryBody[key]
		if p.wl == wlChurn {
			c.reads++
			switch {
			case c.deleted != nil:
				probe, probeDeleted, c.deleted = c.deleted, true, nil
			case c.lastInsert != nil && c.reads%10 == 0:
				probe = c.lastInsert
			}
			if probe != nil {
				body = p.freshBody[probe.fresh] // {"point":…}: an insert body is a query body
			}
		}
	case opNear:
		path, body = "/v1/near", p.nearBody[key]
	case opBatch:
		path, body = "/v1/batch", p.freshBody[key]
	case opInsert:
		path, body = "/v1/insert", p.freshBody[key]
	case opDelete:
		if len(c.live) == 0 {
			// Nothing of this client's to delete yet: the slot becomes a read.
			c.do(op{opQuery, int32(key % p.sz.Pool)})
			return
		}
		path = "/v1/delete"
		body = mustJSON(server.DeleteRequest{ID: &c.live[key%len(c.live)].id})
	}

	traceID := ""
	if c.run.trace {
		c.seq++
		traceID = fmt.Sprintf("bench-%d-%06d", c.id, c.seq)
	}
	start := time.Now()
	status, reply, spans, lat, err := c.post(c.run.d.entry, path, body, traceID)
	c.res.Attempted++
	latUS := us(lat)
	if latUS > c.res.maxLatUS {
		c.res.maxLatUS = latUS
	}
	if err != nil || status != http.StatusOK {
		c.res.Failed++
		if err != nil {
			c.wrong("%s %s: %v", kind, path, err)
		} else {
			c.wrong("%s %s: status %d: %.120s", kind, path, status, reply)
		}
		return
	}
	c.res.Succeeded++
	if c.run.trace {
		c.traced = append(c.traced, pendingTrace{id: traceID, op: kind.String(), start: start, dur: lat, inner: obs.DecodeSpans(spans)})
	}
	if kind.isWrite() {
		c.res.writeLat = append(c.res.writeLat, latUS)
	} else {
		c.res.readLat = append(c.res.readLat, latUS)
	}

	switch kind {
	case opQuery, opNear:
		c.res.Ops++
		var got server.QueryResponse
		if err := json.Unmarshal(reply, &got); err != nil {
			c.wrong("%s key %d: undecodable reply: %v", kind, key, err)
			return
		}
		switch {
		case probe != nil && probeDeleted:
			if got.Index == int(probe.id) {
				c.wrong("deleted id %d was returned after its delete was acknowledged", probe.id)
			}
		case probe != nil:
			if got.Index != int(probe.id) || got.Distance != 0 {
				c.wrong("acked insert %d not found at distance 0: got index %d distance %d", probe.id, got.Index, got.Distance)
			}
		default:
			c.checkPoolRead(kind, key, got)
		}
	case opBatch:
		var got server.BatchResponse
		if err := json.Unmarshal(reply, &got); err != nil || len(got.Results) != p.sz.Batch {
			c.wrong("batch %d: bad reply (%d results, err %v)", key, len(got.Results), err)
			return
		}
		c.res.Ops += len(got.Results)
		c.batches = append(c.batches, batchReply{int32(key), got.Results})
	case opInsert:
		c.res.Ops++
		var got server.InsertResponse
		if err := json.Unmarshal(reply, &got); err != nil || got.Offset == 0 {
			c.wrong("insert %d: bad reply %.120s", key, reply)
			return
		}
		rec := insertRec{id: got.ID, fresh: int32(key)}
		c.live = append(c.live, rec)
		c.lastInsert = &rec
		S := uint64(p.sz.Shards)
		c.acked[got.ID%S] = append(c.acked[got.ID%S], ackedWrite{got.Offset, segment.Op{Kind: segment.OpInsert, ID: got.ID / S, Point: bitvec.Vector(p.fresh[key])}})
	case opDelete:
		c.res.Ops++
		var got server.DeleteResponse
		i := key % len(c.live)
		victim := c.live[i]
		if err := json.Unmarshal(reply, &got); err != nil || !got.Deleted || got.Offset == 0 {
			c.wrong("delete of live id %d: bad reply %.120s", victim.id, reply)
			return
		}
		c.live[i] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		if c.lastInsert != nil && c.lastInsert.id == victim.id {
			c.lastInsert = nil
		}
		c.deleted = &victim
		S := uint64(p.sz.Shards)
		c.acked[victim.id%S] = append(c.acked[victim.id%S], ackedWrite{got.Offset, segment.Op{Kind: segment.OpDelete, ID: victim.id / S}})
	}
}

// checkPoolRead verifies a read of pool key: against the oracle where
// the deployment is static, and for recall — the answer lies within γ×
// the planted distance (for /v1/near: YES within γ·λ).
func (c *clientState) checkPoolRead(kind opKind, key int, got server.QueryResponse) {
	p := c.run.p
	if o := c.run.expect; o != nil {
		want := o.query[key]
		if kind == opNear {
			want = o.near[key]
		}
		if !sameAnswer(got, want) {
			c.wrong("%s key %d: reply %+v differs from the in-process oracle's %+v", kind, key, got, want)
		}
	}
	limit, slot := gamma*float64(p.inst.Queries[key].NNDist), 2*key
	if kind == opNear {
		limit, slot = gamma*p.sz.Lambda, 2*key+1
	}
	if got.Index >= 0 && float64(got.Distance) <= limit {
		if c.recall[slot] == 0 {
			c.recall[slot] = recallHit
		}
	} else {
		c.recall[slot] = recallMiss
	}
}

const (
	recallHit  = 1
	recallMiss = 2
)

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase replays ops with the first nclients clients for at most d (or
// until the segment runs out): client c takes ops c, c+n, c+2n, …, so
// each client's stream is fixed by the seed.
func (r *runner) phase(name string, ops []op, nclients int, d time.Duration) phaseResult {
	for _, c := range r.clients {
		c.res = phaseResult{}
	}
	cpu0, start := cpuTime(), time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range r.clients[:nclients] {
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			for i := c.id; i < len(ops); i += nclients {
				if d > 0 && !time.Now().Before(deadline) {
					break
				}
				c.do(ops[i])
			}
		}(c)
	}
	wg.Wait()
	out := phaseResult{Name: name, Clients: nclients, WallS: time.Since(start).Seconds(), CPUS: (cpuTime() - cpu0).Seconds()}
	for _, c := range r.clients[:nclients] {
		out.Attempted += c.res.Attempted
		out.Succeeded += c.res.Succeeded
		out.Failed += c.res.Failed
		out.Ops += c.res.Ops
		out.readLat = append(out.readLat, c.res.readLat...)
		out.writeLat = append(out.writeLat, c.res.writeLat...)
		if c.res.maxLatUS > out.maxLatUS {
			out.maxLatUS = c.res.maxLatUS
		}
	}
	return out
}

// errors gathers every client's wrong-answer and failure notes.
func (r *runner) errors() []string {
	var out []string
	for _, c := range r.clients {
		out = append(out, c.errs...)
	}
	return out
}

// recall counts the distinct pool questions asked and how many were
// answered within the bound every time they were asked.
func (r *runner) recall() (hit, total int) {
	for slot := range r.clients[0].recall {
		var worst uint8
		for _, c := range r.clients {
			worst = max(worst, c.recall[slot])
		}
		if worst != 0 {
			total++
		}
		if worst == recallHit {
			hit++
		}
	}
	return hit, total
}

// warmUp brings the deployment to its steady state before anything is
// timed. The rule is one full pass over the pool: the lazily simulated
// tables evaluate a cell the first time it is probed (an O(n) scan) and
// memoise it, so the first seconds after boot run at under half the warm
// rate. Each replica has its own memo and the router spreads reads
// round-robin, so the pass goes to every shard server directly, and then
// once through the entry point (connections, the router's cache and its
// hedge-delay window).
func (r *runner) warmUp() error {
	p := r.p
	if len(p.warm) > 0 { // engine-novel: a few batches; nothing is reusable by design
		res := r.phase("warm-up", p.warm, 1, 0)
		if res.Failed > 0 {
			return fmt.Errorf("warm-up: %d of %d requests failed: %v", res.Failed, res.Attempted, r.errors())
		}
		r.clients[0].batches = nil
		return nil
	}
	type target struct {
		url string
		key int
	}
	var work []target
	for _, row := range r.d.nodes {
		for _, n := range row {
			for k := 0; k < p.sz.Pool; k++ {
				work = append(work, target{n.url, k})
			}
		}
	}
	var mu sync.Mutex
	var firstErr error
	w := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := &clientState{run: r}
			for i := g; i < len(work); i += w {
				t := work[i]
				status, _, _, _, err := c.post(t.url, "/v1/query", p.queryBody[t.key], "")
				if err == nil && status == http.StatusOK && p.wl != wlChurn {
					status, _, _, _, err = c.post(t.url, "/v1/near", p.nearBody[t.key], "")
				}
				if err != nil || status != http.StatusOK {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("warm-up of %s key %d: status %d, %v", t.url, t.key, status, err)
					}
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	var pass []op
	for k := 0; k < p.sz.Pool; k++ {
		pass = append(pass, op{opQuery, int32(k)})
		if p.wl != wlChurn {
			pass = append(pass, op{opNear, int32(k)})
		}
	}
	res := r.phase("warm-up", pass, len(r.clients), 0)
	for _, c := range r.clients {
		clear(c.recall)
		c.reads = 0
	}
	if res.Failed > 0 || len(r.errors()) > 0 {
		return fmt.Errorf("warm-up pass through the entry point: %d failed: %v", res.Failed, r.errors())
	}
	return nil
}

// verifyBatches is engine-novel's oracle pass: every point sent during
// the timed phases is asked again directly of the served index — cheap
// now, because the timed run memoised its cells — and the wire reply must
// match field for field. It also scores recall against the database
// point each fresh query was drawn next to.
func (r *runner) verifyBatches() (hit, total int, errs []string) {
	p := r.p
	for _, c := range r.clients {
		for _, b := range c.batches {
			for j, got := range b.results {
				i := int(b.batch)*p.sz.Batch + j
				x := p.fresh[i]
				want := wireResult(r.d.single.Query(x))
				if !sameAnswer(got, want) && len(errs) < 8 {
					errs = append(errs, fmt.Sprintf("batch %d point %d: reply %+v differs from the index's own %+v", b.batch, j, got, want))
				}
				total++
				planted := bitvec.Distance(p.inst.DB[p.freshNear[i]], x)
				if got.Index >= 0 && float64(got.Distance) <= gamma*float64(planted) {
					hit++
				}
			}
		}
	}
	return hit, total, errs
}

// verifyChurn is replicated-churn's end-state gate: on every replica of
// every shard the WAL holds exactly the acknowledged mutations, in the
// order and at the offsets the acks reported, and the replicas' applied
// offsets agree — no acked write lost, none invented, replicas converged.
func (r *runner) verifyChurn() []string {
	p := r.p
	var errs []string
	for s, row := range r.d.nodes {
		want := map[uint64]segment.Op{}
		for _, c := range r.clients {
			for _, a := range c.acked[s] {
				want[a.offset] = a.op
			}
		}
		for ri, n := range row {
			n.mx.WaitIdle()
			if off := n.mx.ReplicationOffset(); off != uint64(len(want)) {
				errs = append(errs, fmt.Sprintf("shard %d replica %d: applied offset %d, %d writes were acknowledged", s, ri, off, len(want)))
				continue
			}
			blob, count, err := segment.ReadWALFrames(n.wal, p.sz.Dim, 0, 0)
			if err != nil {
				errs = append(errs, fmt.Sprintf("shard %d replica %d: reading WAL: %v", s, ri, err))
				continue
			}
			ops, err := segment.DecodeFrames(blob, p.sz.Dim)
			if err != nil || count != len(want) {
				errs = append(errs, fmt.Sprintf("shard %d replica %d: WAL holds %d frames (err %v), %d writes were acknowledged", s, ri, count, err, len(want)))
				continue
			}
			for i, got := range ops {
				w := want[uint64(i+1)]
				if got.Kind != w.Kind || got.ID != w.ID || !bitvec.Equal(got.Point, w.Point) {
					errs = append(errs, fmt.Sprintf("shard %d replica %d: WAL frame %d is not the write acknowledged at that offset", s, ri, i+1))
					break
				}
			}
		}
	}
	return errs
}
