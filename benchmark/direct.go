package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/anns"
	"repro/internal/bitvec"
	"repro/internal/cellprobe"
	"repro/internal/core"
	"repro/internal/hamming"
	"repro/internal/qcache"
	"repro/internal/rng"
	"repro/internal/segment"
	"repro/internal/server"
)

// The "direct" per-layer rows: timed calls into each module's public
// functions, on the workload's own shapes (its dimension, its corpus,
// its pool points) — the layers below `execute`, which no span reaches
// yet. Each row is a mean over a fixed call count.

// keep defeats dead-code elimination of the timed calls' results.
var keep int

// perCall runs f(0..n-1) and returns the mean nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func heapAlloc() (bytes, mallocs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.Mallocs
}

// nullResponse is the cheapest http.ResponseWriter, so encode_reply_ns
// times the encoder and not a recorder.
type nullResponse struct{ h http.Header }

func (n *nullResponse) Header() http.Header         { return n.h }
func (n *nullResponse) Write(b []byte) (int, error) { return len(b), nil }
func (n *nullResponse) WriteHeader(int)             {}

// directMetrics measures every direct row into m. ix is the index the
// workload's shards serve (one shard of the oracle, or engine-novel's
// whole index); dir is scratch space for the WAL rows.
func directMetrics(m *metricSet, p *plan, d *deployment, dir string, reps int) error {
	dim := p.sz.Dim
	pool := p.inst.Queries
	sample := p.sz.TraceOps
	if sample > len(pool) {
		sample = len(pool)
	}
	at := func(i int) anns.Point { return pool[i%sample].X }

	// ---- anns: the served index shape, warm (the traced sample's points).
	ix := d.single
	var ixPoints []anns.Point
	if ix == nil {
		ix = d.sharded.Shard(0)
		for i := 0; i < len(p.inst.DB); i += p.sz.Shards {
			ixPoints = append(ixPoints, p.inst.DB[i])
		}
	} else {
		ixPoints = p.inst.DB
	}
	for i := 0; i < sample; i++ { // first touch fills the memo; not timed
		ix.Query(at(i))
		ix.QueryNear(at(i), p.sz.Lambda)
	}
	m.put("anns.query_us", perCall(reps, func(i int) {
		r, _ := ix.Query(at(i))
		keep += r.Index
	})/1e3)
	m.put("anns.near_us", perCall(reps, func(i int) {
		r, _ := ix.QueryNear(at(i), p.sz.Lambda)
		keep += r.Index
	})/1e3)
	_, mal0 := heapAlloc()
	for i := 0; i < reps; i++ {
		r, _ := ix.Query(at(i))
		keep += r.Index
	}
	_, mal1 := heapAlloc()
	m.put("anns.allocs_per_query", float64(mal1-mal0)/float64(reps))
	if sx := d.sharded; sx != nil {
		for i := 0; i < sample; i++ {
			sx.Query(at(i))
		}
		m.put("anns.sharded_query_us", perCall(reps, func(i int) {
			r, _ := sx.Query(at(i))
			keep += r.Index
		})/1e3)
	}
	replies := []anns.ShardReply{
		{Result: anns.Result{Index: 3, Distance: 51, Rounds: 3, Probes: 9, MaxParallel: 4}, OK: true},
		{Result: anns.Result{Index: 7, Distance: 240, Rounds: 3, Probes: 9, MaxParallel: 4}, OK: true},
	}
	global := anns.RoundRobinGlobal(2)
	m.put("anns.merge_ns", perCall(reps*100, func(int) { keep += anns.MergeShardReplies(replies, global).Index }))

	// A batch of never-seen points, as engine-novel sends them.
	fresh := rng.New(p.seed ^ 0xd1ec7)
	novel := func(n int) []anns.Point {
		out := make([]anns.Point, n)
		for i := range out {
			out[i] = hamming.AtDistance(fresh, ixPoints[fresh.Intn(len(ixPoints))], dim, p.sz.Dist)
		}
		return out
	}
	batchN := fullSizes(wlEngineNovel).Batch
	nb := reps / 32
	if nb < 2 {
		nb = 2
	}
	batches := make([][]anns.Point, nb)
	for i := range batches {
		batches[i] = novel(batchN)
	}
	m.put("anns.batch_point_us", perCall(nb, func(i int) {
		keep += len(ix.BatchQuery(batches[i], 0))
	})/1e3/float64(batchN))

	// ---- internal/core: a BuildIndexParallel twin of ix; same seed, same
	// points, so its answers must be ix's.
	o := ix.Options()
	twin := core.BuildIndexParallel(ixPoints, dim, core.Params{Gamma: o.Gamma, K: o.Rounds, C1: o.RowsMultiplier, C2: o.RowsMultiplier, Seed: o.Seed}, 0)
	algo := core.NewAlgo1(twin, o.Rounds)
	ctx := core.NewQueryCtx()
	var probes, maxPar, maxRounds int
	for i := 0; i < sample; i++ {
		res := algo.QueryWithCtx(at(i), ctx)
		want, _ := ix.Query(at(i))
		if res.Index != want.Index || res.Stats.Probes != want.Probes {
			return fmt.Errorf("core twin disagrees with anns on pool key %d: core (%d, %d probes), anns (%d, %d probes)",
				i, res.Index, res.Stats.Probes, want.Index, want.Probes)
		}
		probes += res.Stats.Probes
		if res.Stats.Rounds > maxRounds {
			maxRounds = res.Stats.Rounds
		}
		if mp := res.Stats.MaxProbesInRound(); mp > maxPar {
			maxPar = mp
		}
	}
	if maxRounds > o.Rounds {
		return fmt.Errorf("core used %d rounds, the budget k is %d", maxRounds, o.Rounds)
	}
	m.put("core.query_us", perCall(reps, func(i int) { keep += algo.QueryWithCtx(at(i), ctx).Index })/1e3)
	m.put("core.probes_per_query", float64(probes)/float64(sample))
	m.put("core.rounds_max", float64(maxRounds))
	m.put("core.max_parallel", float64(maxPar))

	// ---- internal/cellprobe, internal/table: one mid level's ball table.
	level := twin.Fam.L / 2
	bt := twin.Tables.Ball[level]
	addrs := make([]cellprobe.Addr, sample)
	for i := range addrs {
		addrs[i] = bt.Address(at(i))
		bt.Table().Lookup(addrs[i])
	}
	m.put("cellprobe.lookup_hit_ns", perCall(reps*10, func(i int) { keep += bt.Table().Lookup(addrs[i%sample]).Index }))
	cold := novel(64)
	coldAddrs := make([]cellprobe.Addr, len(cold))
	for i, x := range cold {
		coldAddrs[i] = bt.Address(x)
	}
	m.put("table.evalcell_us", perCall(len(cold), func(i int) { keep += bt.EvalCell(coldAddrs[i]).Index })/1e3)
	// Memo growth: heap and materialised-cell deltas over novel queries.
	grow := novel(512)
	runtime.GC()
	h0, _ := heapAlloc()
	c0 := twin.Tables.Space().MaterializedWord
	for _, x := range grow {
		keep += algo.QueryWithCtx(x, ctx).Index
	}
	runtime.GC()
	h1, _ := heapAlloc()
	if cells := twin.Tables.Space().MaterializedWord - c0; cells > 0 && h1 > h0 {
		m.put("table.memo_bytes_per_cell", float64(h1-h0)/float64(cells))
	}

	// ---- internal/sketch, internal/bitvec.
	mat := twin.Fam.Accurate[level]
	dst := bitvec.New(mat.NumRows)
	m.put("sketch.apply_ns", perCall(reps, func(i int) { keep += int(mat.ApplyInto(dst, at(i))[0] & 1) }))
	xs := make([]bitvec.Vector, batchN)
	dsts := make([]bitvec.Vector, batchN)
	for i := range xs {
		xs[i], dsts[i] = at(i), bitvec.New(mat.NumRows)
	}
	m.put("sketch.apply_batch_ns", perCall(reps/4+1, func(int) { mat.ApplyBatchInto(dsts, xs) })/float64(batchN))
	m.put("sketch.bytes_per_apply", float64(mat.NumRows*bitvec.Words(dim)*8)) // computed: the matrix streamed once
	a, b := at(0), at(1)
	m.put("bitvec.distance_ns", perCall(reps*100, func(int) { keep += bitvec.Distance(a, b) }))
	sa, sb := bt.DBSketch(0), bt.DBSketch(1)
	thr := twin.Fam.AccurateThreshold(level)
	m.put("bitvec.distance_sketch_ns", perCall(reps*100, func(int) {
		if bitvec.DistanceAtMost(sa, sb, thr) {
			keep++
		}
	}))

	// ---- internal/server wire codec, internal/qcache.
	enc := server.EncodePoint(at(0))
	m.put("server.decode_point_ns", perCall(reps*10, func(int) {
		x, _ := server.DecodePoint(enc, dim)
		keep += len(x)
	}))
	reply := server.QueryResponse{Index: 12345, Distance: 51, Rounds: 3, Probes: 9, MaxParallel: 4}
	nw := &nullResponse{h: http.Header{}}
	m.put("server.encode_reply_ns", perCall(reps*10, func(int) { server.WriteJSON(nw, http.StatusOK, reply) }))
	cacheN := p.sz.Cache
	if cacheN == 0 {
		cacheN = fullSizes(wlRoutedZipf).Cache
	}
	qc := qcache.New(cacheN)
	keys := make([]cellprobe.Addr, 2*cacheN)
	gen := rng.New(p.seed ^ 0xcac4e)
	for i := range keys {
		keys[i] = server.QueryCacheKey(hamming.Random(gen, dim))
	}
	for _, k := range keys[:cacheN] {
		qc.Put(k, 0, reply)
	}
	m.put("qcache.get_hit_ns", perCall(reps*10, func(i int) {
		if _, ok := qc.Get(keys[i%cacheN], 0); ok {
			keep++
		}
	}))
	m.put("qcache.get_miss_ns", perCall(reps*10, func(i int) {
		if _, ok := qc.Get(keys[cacheN+i%cacheN], 0); ok {
			keep++
		}
	}))
	m.put("qcache.put_ns", perCall(reps*10, func(i int) { qc.Put(keys[i%len(keys)], 0, reply) })) // half overwrite, half evict

	// ---- internal/segment: WAL (fsync every record, as the workload runs
	// it), frame codec, memtable scan at the seal threshold.
	memCap := p.sz.MemtableCap
	if memCap == 0 {
		memCap = fullSizes(wlChurn).MemtableCap
	}
	pts := make([]bitvec.Vector, memCap)
	ids := make([]uint64, memCap)
	for i := range pts {
		pts[i], ids[i] = hamming.Random(gen, dim), uint64(i)
	}
	wal, _, err := segment.OpenWAL(filepath.Join(dir, "direct.wal"), dim, 1, func(segment.Op) error { return nil })
	if err != nil {
		return err
	}
	size0 := wal.Size()
	appends := reps / 4
	var werr error
	m.put("segment.wal_append_us", perCall(appends, func(i int) {
		if err := wal.Append(segment.Op{Kind: segment.OpInsert, ID: uint64(i), Point: pts[i%memCap]}); err != nil {
			werr = err
		}
	})/1e3)
	m.put("segment.wal_bytes_per_write", float64(wal.Size()-size0)/float64(appends))
	if err := wal.Close(); err != nil || werr != nil {
		return fmt.Errorf("direct WAL rows: append %v, close %v", werr, err)
	}
	frame, err := segment.EncodeFrame(segment.Op{Kind: segment.OpInsert, ID: 1, Point: pts[0]}, dim)
	if err != nil {
		return err
	}
	m.put("segment.encode_frame_ns", perCall(reps*10, func(i int) {
		f, _ := segment.EncodeFrame(segment.Op{Kind: segment.OpInsert, ID: uint64(i), Point: pts[i%memCap]}, dim)
		keep += len(f)
	}))
	m.put("segment.decode_frame_ns", perCall(reps*10, func(int) {
		ops, _ := segment.DecodeFrames(frame, dim)
		keep += len(ops)
	}))
	mem := segment.NewMemtableFrom(ids, pts)
	m.put("segment.memtable_scan_us", perCall(reps, func(i int) { keep += mem.Scan(at(i), nil).Pos })/1e3)

	// ---- anns mutable tier: a tier over ix holding half a memtable, with
	// an fsynced WAL; then one compaction of it.
	mx, err := anns.NewMutable(ix, anns.MutableConfig{MemtableCap: memCap, WALPath: filepath.Join(dir, "direct-mutable.wal"), WALSyncEvery: 1})
	if err != nil {
		return err
	}
	defer mx.Close()
	var ierr error
	m.put("anns.insert_us", perCall(memCap/2, func(i int) {
		if _, err := mx.Insert(pts[i]); err != nil {
			ierr = err
		}
	})/1e3)
	if ierr != nil {
		return ierr
	}
	m.put("anns.mutable_query_us", perCall(reps, func(i int) {
		r, _ := mx.Query(at(i))
		keep += r.Index
	})/1e3)
	mx.Flush()
	t0 := time.Now()
	if err := mx.Compact(); err != nil {
		return err
	}
	m.put("anns.compaction_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	return nil
}
