package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/anns"
	"repro/internal/hamming"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

// sizes fixes one workload's shape: corpus, deployment and schedule
// lengths. Schedules are compiled to a fixed length from the seed (so
// they can be digested and pinned); a timed phase replays its segment
// until its time is up, and the lengths leave several times the headroom
// the seed commit needs.
type sizes struct {
	Dim, N, Pool int
	Dist         int     // planted nearest-neighbour distance
	Lambda       float64 // /v1/near threshold; Dist <= Lambda, so the answer is YES
	Shards       int
	Replicas     int
	Cache        int // result-cache entries at router and shards (0 = off)
	Batch        int // points per /v1/batch request
	MemtableCap  int
	CompactEvery int
	WarmOps      int // untimed requests before the solo phase (engine-novel, churn)
	SoloOps      int // schedule length of the 1-client phase, in requests
	SatOps       int // schedule length of the nproc-client phase, in requests
	TraceOps     int // solo prefix replayed by the traced run
	Setups       int // how many times the deployment is booted for setup_s
	TailPct      float64
}

const (
	gamma  = 2.0
	rounds = 3
	theta  = 0.99

	// corpusSeed fixes the database, the pool of planted queries and the
	// index's public randomness; -seed drives the traffic only (key draws,
	// op mix, fresh and inserted points). The lazily simulated tables scan
	// the database in order until the first match, so a cold cell's cost
	// depends on where the corpus and the sketch family happen to put that
	// match: with the corpus drawn from -seed, engine-novel's CPU per op
	// moved by 12% between seeds and by 0.1% between runs of one seed. The
	// driver compares runs across seeds, so that variation has to stay out.
	corpusSeed = 1
)

// fullSizes are the sizes BENCHMARK.json is measured at.
func fullSizes(wl string) sizes {
	sz := sizes{
		Dim: 512, N: 16384, Pool: 4096, Dist: 51, Lambda: 64,
		Shards: 2, Replicas: 2,
		SoloOps: 60000, SatOps: 160000, TraceOps: 2000, Setups: 3, TailPct: 0.99,
	}
	switch wl {
	case wlRoutedZipf:
		sz.Cache = 2048
	case wlEngineNovel:
		sz.Shards, sz.Replicas = 1, 1
		sz.Batch = 8
		sz.WarmOps, sz.SoloOps, sz.SatOps, sz.TraceOps = 8, 2048, 2048, 125
		// A batch of 16 cold points takes ~10 ms, so the solo phase holds a
		// few hundred requests: p95 is the highest percentile that keeps ten
		// samples beyond it, and it is fixed here so the metric does not
		// change meaning when the engine gets faster.
		sz.TailPct = 0.95
	case wlChurn:
		sz.Cache = 2048
		sz.MemtableCap, sz.CompactEvery = 512, 3
		sz.WarmOps, sz.SoloOps, sz.SatOps = 0, 30000, 60000
	}
	return sz
}

// quickSizes are ~1/20 of the full op counts on a small corpus: every
// code path and correctness gate, none of the statistics.
func quickSizes(wl string) sizes {
	sz := fullSizes(wl)
	sz.N, sz.Pool = 2048, 256
	sz.SoloOps, sz.SatOps, sz.TraceOps, sz.Setups = 3000, 8000, 100, 1
	if sz.Cache > 0 {
		sz.Cache = 128
	}
	switch wl {
	case wlEngineNovel:
		sz.WarmOps, sz.SoloOps, sz.SatOps, sz.TraceOps = 2, 100, 100, 8
	case wlChurn:
		sz.MemtableCap, sz.CompactEvery = 32, 3
		sz.SoloOps, sz.SatOps = 1500, 3000
	}
	return sz
}

type opKind uint8

const (
	opQuery opKind = iota
	opNear
	opBatch
	opInsert
	opDelete
)

func (k opKind) String() string {
	return [...]string{"query", "near", "batch", "insert", "delete"}[k]
}

func (k opKind) isWrite() bool { return k == opInsert || k == opDelete }

// op is one scheduled request. Key is a pool index for query/near, a
// batch index for batch, an index into plan.fresh for insert, and a
// victim selector (reduced modulo the client's live inserts) for delete.
type op struct {
	Kind opKind
	Key  int32
}

// plan is one workload's compiled inputs: the corpus, the schedule and
// every request body, all a pure function of (workload, sizes, seed).
type plan struct {
	wl   string
	seed uint64
	sz   sizes
	inst *workload.Instance

	warm, solo, sat []op

	queryBody, nearBody [][]byte // per pool key
	// fresh holds the never-before-sent points: engine-novel's batch b is
	// fresh[b*Batch:(b+1)*Batch] over warm|solo|sat in that order; churn's
	// insert i is fresh[i]. freshBody is the matching request body (one per
	// batch, or one per insert).
	fresh     []anns.Point
	freshNear []int32 // engine-novel: DB index each fresh point was drawn next to
	freshBody [][]byte

	digest string
}

// Seed-split labels; frozen, like internal/workload/scenario's.
const (
	tagKinds = 0x6b696e6473 // "kinds"
	tagFresh = 0x6672657368 // "fresh"
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// compile builds the plan for one workload.
func compile(wl string, seed uint64, sz sizes) (*plan, error) {
	spec := workload.Spec{Kind: "planted", D: sz.Dim, N: sz.N, Q: sz.Pool, Dist: sz.Dist, Seed: corpusSeed}
	inst, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	p := &plan{wl: wl, seed: seed, sz: sz, inst: inst}
	for _, q := range inst.Queries {
		enc := server.EncodePoint(q.X)
		p.queryBody = append(p.queryBody, mustJSON(server.QueryRequest{Point: enc}))
		p.nearBody = append(p.nearBody, mustJSON(server.NearRequest{Point: enc, Lambda: sz.Lambda}))
	}
	root := rng.New(seed)
	fresh := root.Split(tagFresh)
	total := sz.WarmOps + sz.SoloOps + sz.SatOps
	var all []op
	switch wl {
	case wlRoutedRepeat, wlRoutedZipf:
		dist := scenario.DistUniform
		if wl == wlRoutedZipf {
			dist = scenario.DistZipfian
		}
		keys := scenario.NewGen(dist, sz.Pool, theta, seed)
		kinds := root.Split(tagKinds)
		all = make([]op, total)
		for i := range all {
			k := opQuery
			if kinds.Bernoulli(0.2) {
				k = opNear
			}
			all[i] = op{k, int32(keys.Next())}
		}
	case wlEngineNovel:
		all = make([]op, total)
		for b := range all {
			all[b] = op{opBatch, int32(b)}
			req := server.BatchRequest{Points: make([]string, sz.Batch)}
			for j := 0; j < sz.Batch; j++ {
				// A fresh uniform point at the planted distance from a database
				// point: the planted workload's own query distribution, drawn
				// anew for every request, so no sketch — and no cell — repeats.
				nn := inst.Queries[fresh.Intn(sz.Pool)].NNIndex
				x := hamming.AtDistance(fresh, inst.DB[nn], sz.Dim, sz.Dist)
				p.fresh = append(p.fresh, x)
				p.freshNear = append(p.freshNear, int32(nn))
				req.Points[j] = server.EncodePoint(x)
			}
			p.freshBody = append(p.freshBody, mustJSON(req))
		}
	case wlChurn:
		mix := &scenario.Scenario{
			Name: wlChurn, InsertRatio: 0.40, DeleteRatio: 0.10,
			ReadDist: scenario.DistZipfian, WriteDist: scenario.DistUniform,
		}
		sops := mix.Ops(total, scenario.Config{Seed: seed, Theta: theta, QueryKeys: sz.Pool, WriteKeys: 1 << 20})
		all = make([]op, total)
		for i, so := range sops {
			switch so.Kind {
			case scenario.OpInsert:
				// Inserted points are uniform: ~d/2 from everything, so they
				// never become a pool query's neighbour and read recall stays a
				// property of the corpus, not of the write stream.
				x := hamming.Random(fresh, sz.Dim)
				all[i] = op{opInsert, int32(len(p.fresh))}
				p.fresh = append(p.fresh, x)
				p.freshBody = append(p.freshBody, mustJSON(server.InsertRequest{Point: server.EncodePoint(x)}))
			case scenario.OpDelete:
				all[i] = op{opDelete, int32(so.Key)}
			default:
				all[i] = op{opQuery, int32(so.Key)}
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	p.warm, p.solo, p.sat = all[:sz.WarmOps], all[sz.WarmOps:sz.WarmOps+sz.SoloOps], all[sz.WarmOps+sz.SoloOps:]
	p.digest = p.computeDigest(all)
	return p, nil
}

// computeDigest is a SHA-256 over everything the deployment will be
// sent: the sizes, the schedule, and every request body in order.
func (p *plan) computeDigest(all []op) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %+v\n", p.wl, p.seed, p.sz)
	var b [5]byte
	for _, o := range all {
		b[0] = byte(o.Kind)
		binary.LittleEndian.PutUint32(b[1:], uint32(o.Key))
		h.Write(b[:])
	}
	for _, bodies := range [][][]byte{p.queryBody, p.nearBody, p.freshBody} {
		for _, body := range bodies {
			h.Write(body)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// dbPoints returns the corpus as a fresh slice (the index builders
// retain their argument).
func (p *plan) dbPoints() []anns.Point {
	pts := make([]anns.Point, len(p.inst.DB))
	copy(pts, p.inst.DB)
	return pts
}
