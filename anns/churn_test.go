package anns_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/anns"
	"repro/internal/bitvec"
	"repro/internal/hamming"
	"repro/internal/rng"
)

// churnOracle is an independently written reference implementation of
// the mutable tier's query semantics: it mirrors the documented state
// machine (memtable seals at the cap into a raw segment that is scanned
// exactly like the memtable, compactions rebuild over ID-ascending live
// points with CompactionSeed(seed, epoch)) and folds per-tier answers
// with the exported MergeShardReplies. The churn test drives the real
// MutableIndex and this oracle through the same fixed-seed operation
// stream and requires byte-identical answers — results AND
// rounds/probes accounting — after every operation.
type churnOracle struct {
	t    *testing.T
	opts anns.Options
	cap_ int

	base    *anns.Index
	basePts []anns.Point
	baseIDs []uint64
	segPts  [][]anns.Point
	segIDs  [][]uint64
	memIDs  []uint64
	memPts  []anns.Point
	dead    map[uint64]bool
	nextID  uint64
	epoch   uint64
}

func (o *churnOracle) insert(p anns.Point) {
	o.memIDs = append(o.memIDs, o.nextID)
	o.memPts = append(o.memPts, p)
	o.nextID++
	if len(o.memIDs) >= o.cap_ {
		o.segPts = append(o.segPts, o.memPts)
		o.segIDs = append(o.segIDs, o.memIDs)
		o.memIDs, o.memPts = nil, nil
	}
}

func (o *churnOracle) delete(id uint64) { o.dead[id] = true }

func (o *churnOracle) compact() {
	var ids []uint64
	var pts []anns.Point
	if o.base != nil {
		for j, p := range o.basePts {
			id := uint64(j)
			if o.baseIDs != nil {
				id = o.baseIDs[j]
			}
			if !o.dead[id] {
				ids = append(ids, id)
				pts = append(pts, p)
			}
		}
	}
	for s, segIDs := range o.segIDs {
		for j, id := range segIDs {
			if !o.dead[id] {
				ids = append(ids, id)
				pts = append(pts, o.segPts[s][j])
			}
		}
	}
	opts := o.opts
	opts.Seed = anns.CompactionSeed(o.opts.Seed, o.epoch)
	o.epoch++
	ix, err := anns.Build(pts, opts)
	if err != nil {
		o.t.Fatalf("oracle compaction build: %v", err)
	}
	o.base, o.basePts, o.baseIDs = ix, pts, ids
	o.segPts, o.segIDs = nil, nil
	// Tombstones the compaction applied are retired; the memtable's
	// tombstoned entries (not captured) keep theirs.
	live := map[uint64]bool{}
	for _, id := range o.memIDs {
		live[id] = true
	}
	for id := range o.dead {
		if !live[id] {
			delete(o.dead, id)
		}
	}
}

// query folds per-tier reference answers exactly as the spec says the
// tier must.
func (o *churnOracle) query(x anns.Point) (anns.Result, bool) {
	var replies []anns.ShardReply
	var idmaps [][]uint64
	ask := func(ix *anns.Index, ids []uint64) {
		res, err := ix.Query(x)
		ok := err == nil
		if ok && o.dead[tierID(ids, res.Index)] {
			ok = false
		}
		replies = append(replies, anns.ShardReply{Result: res, OK: ok})
		idmaps = append(idmaps, ids)
	}
	// Sealed segments and the memtable are exact scans: one round, one
	// probe per stored entry, dead entries skipped, first minimum wins.
	scan := func(ids []uint64, pts []anns.Point) {
		res := anns.Result{Index: -1, Distance: -1, Rounds: 1,
			Probes: len(ids), MaxParallel: len(ids)}
		ok := false
		for j, p := range pts {
			if o.dead[ids[j]] {
				continue
			}
			dist := bitvec.Distance(p, x)
			if !ok || dist < res.Distance {
				ok = true
				res.Index, res.Distance = j, dist
			}
		}
		replies = append(replies, anns.ShardReply{Result: res, OK: ok})
		idmaps = append(idmaps, ids)
	}
	if o.base != nil {
		ask(o.base, o.baseIDs)
	}
	for s, ids := range o.segIDs {
		scan(ids, o.segPts[s])
	}
	if len(o.memIDs) > 0 {
		scan(o.memIDs, o.memPts)
	}
	if len(replies) == 0 {
		return anns.Result{Index: -1, Distance: -1}, false
	}
	out := anns.MergeShardReplies(replies, func(s, j int) int {
		return int(tierID(idmaps[s], j))
	})
	return out, out.Index >= 0
}

func tierID(ids []uint64, j int) uint64 {
	if ids == nil {
		return uint64(j)
	}
	return ids[j]
}

// TestChurnMatchesReferenceFold is the mid-churn half of the acceptance
// criterion: a fixed-seed insert/delete/query interleaving across seals
// must answer byte-identically to the reference fold after every
// single operation.
func TestChurnMatchesReferenceFold(t *testing.T) {
	const d, n0, capSize = 128, 24, 8
	opts := anns.Options{Dimension: d, Rounds: 2, Seed: 1234}
	pts := testPoints(t, d, n0)
	mkBase := func() *anns.Index {
		ix, err := anns.Build(pts, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	mx := newMutable(t, mkBase(), anns.MutableConfig{MemtableCap: capSize})
	o := &churnOracle{t: t, opts: mx.Options(), cap_: capSize,
		base: mkBase(), basePts: pts, dead: map[uint64]bool{}, nextID: uint64(n0)}

	r := rng.New(4242)
	var live []uint64
	for i := 0; i < n0; i++ {
		live = append(live, uint64(i))
	}
	allPts := append([]anns.Point(nil), pts...)
	for step := 0; step < 120; step++ {
		switch roll := r.Intn(100); {
		case roll < 45: // insert a perturbed copy of a random known point
			p := hamming.AtDistance(r, allPts[r.Intn(len(allPts))], d, 1+r.Intn(30))
			id, err := mx.Insert(p)
			if err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			o.insert(p)
			live = append(live, id)
			allPts = append(allPts, p)
		case roll < 60 && len(live) > 2: // delete a random live id
			pick := r.Intn(len(live))
			id := live[pick]
			ok, err := mx.Delete(id)
			if !ok || err != nil {
				t.Fatalf("step %d: delete %d: ok=%v err=%v", step, id, ok, err)
			}
			o.delete(id)
			live = append(live[:pick], live[pick+1:]...)
		}
		x := hamming.AtDistance(r, allPts[r.Intn(len(allPts))], d, 1+r.Intn(25))
		got, gerr := mx.Query(x)
		want, wok := o.query(x)
		if gerr != nil {
			got.Index = -2
		}
		if !wok {
			want.Index = -2
		}
		if got != want {
			t.Fatalf("step %d: mutable answers %+v, reference fold %+v", step, got, want)
		}
	}
	st := mx.MutableStats()
	if st.Sealed < 2 {
		t.Fatalf("churn sealed fewer than two segments (stats %+v) — the test lost its teeth", st)
	}
}

// TestCompactionBoundaryMatchesRebuild is the compaction half of the
// acceptance criterion: at every compaction boundary (memtable drained
// into seals, then compacted), the mutable tier must answer
// byte-identically — results and rounds/probes accounting — to a
// from-scratch static Build over the live points under the compaction
// seed.
func TestCompactionBoundaryMatchesRebuild(t *testing.T) {
	const d, n0, capSize = 128, 16, 8
	opts := anns.Options{Dimension: d, Rounds: 2, Seed: 99}
	pts := testPoints(t, d, n0)
	base, err := anns.Build(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	mx := newMutable(t, base, anns.MutableConfig{MemtableCap: capSize})
	normOpts := mx.Options()

	r := rng.New(777)
	type entry struct {
		id uint64
		p  anns.Point
	}
	livePoints := make([]entry, 0, 64)
	for i, p := range pts {
		livePoints = append(livePoints, entry{uint64(i), p})
	}
	queries := make([]anns.Point, 40)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, pts[i%n0], d, 1+i%30)
	}

	for epoch := uint64(0); epoch < 3; epoch++ {
		// Insert exactly two memtables' worth so the boundary state is
		// pure base (empty memtable, no leftover segments), then delete a
		// couple of points and compact.
		for i := 0; i < 2*capSize; i++ {
			p := hamming.AtDistance(r, pts[r.Intn(n0)], d, 1+r.Intn(40))
			id, err := mx.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			livePoints = append(livePoints, entry{id, p})
		}
		for k := 0; k < 3; k++ {
			pick := r.Intn(len(livePoints))
			if ok, err := mx.Delete(livePoints[pick].id); !ok || err != nil {
				t.Fatal("delete failed")
			}
			livePoints = append(livePoints[:pick], livePoints[pick+1:]...)
		}
		if err := mx.Compact(); err != nil {
			t.Fatalf("epoch %d: Compact: %v", epoch, err)
		}
		if st := mx.MutableStats(); st.Memtable != 0 || st.Sealed != 0 || st.Tombstones != 0 {
			t.Fatalf("epoch %d: boundary state not pure base: %+v", epoch, st)
		}

		// From-scratch rebuild over the live points in ID order.
		rebuildOpts := normOpts
		rebuildOpts.Seed = anns.CompactionSeed(normOpts.Seed, epoch)
		liveIDs := make([]uint64, len(livePoints))
		livePts := make([]anns.Point, len(livePoints))
		for i, e := range livePoints {
			liveIDs[i] = e.id
			livePts[i] = e.p
		}
		rebuilt, err := anns.Build(livePts, rebuildOpts)
		if err != nil {
			t.Fatal(err)
		}
		for qi, x := range queries {
			got, gerr := mx.Query(x)
			want, werr := rebuilt.Query(x)
			if werr == nil {
				want.Index = int(liveIDs[want.Index])
			} else {
				want.Index = -2
			}
			if gerr != nil {
				got.Index = -2
			}
			if got != want {
				t.Fatalf("epoch %d query %d: mutable %+v (err=%v), rebuild %+v (err=%v)",
					epoch, qi, got, gerr, want, werr)
			}
			gotN, gerrN := mx.QueryNear(x, 8)
			wantN, werrN := rebuilt.QueryNear(x, 8)
			if werrN == nil && wantN.Index >= 0 {
				wantN.Index = int(liveIDs[wantN.Index])
			}
			if (gerrN == nil) != (werrN == nil) || (gerrN == nil && gotN != wantN) {
				t.Fatalf("epoch %d near %d: mutable %+v (err=%v), rebuild %+v (err=%v)",
					epoch, qi, gotN, gerrN, wantN, werrN)
			}
		}
	}
}

// TestQueryRacesSealAndCompaction drives concurrent queries against an
// asynchronous tier while inserts force seals and background
// auto-compactions. Every answer must stay valid — a live ID with the
// correct distance — whichever side of a seal or swap the query lands
// on. Run under -race in CI.
func TestQueryRacesSealAndCompaction(t *testing.T) {
	const d, n0, inserts = 128, 24, 160
	opts := anns.Options{Dimension: d, Rounds: 2, Seed: 7}
	pts := testPoints(t, d, n0)
	base, err := anns.Build(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-generate every point so queriers can validate any ID the tier
	// may return without synchronizing with the inserter.
	r := rng.New(55)
	all := make([]anns.Point, n0+inserts)
	copy(all, pts)
	for i := n0; i < len(all); i++ {
		all[i] = hamming.Random(r, d)
	}
	mx, err := anns.NewMutable(base, anns.MutableConfig{
		Options: opts, MemtableCap: 16, CompactEvery: 2, // async, compacting
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qr := rng.New(uint64(1000 + g))
			for !stop.Load() {
				x := hamming.AtDistance(qr, all[qr.Intn(len(all))], d, 1+qr.Intn(20))
				res, err := mx.Query(x)
				if err != nil {
					continue // a scheme-level failure is legal; racing is not
				}
				if res.Index < 0 || res.Index >= len(all) {
					errc <- fmt.Errorf("id %d out of range", res.Index)
					return
				}
				if res.Distance != bitvec.Distance(all[res.Index], x) {
					errc <- fmt.Errorf("distance %d wrong for id %d", res.Distance, res.Index)
					return
				}
				if res.Rounds < 1 || res.Probes < 1 {
					errc <- fmt.Errorf("degenerate accounting %+v", res)
					return
				}
			}
		}(g)
	}
	for i := n0; i < len(all); i++ {
		if _, err := mx.Insert(all[i]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	mx.WaitIdle()
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if st := mx.MutableStats(); st.Compactions == 0 { // a compaction needs two seals
		t.Fatalf("race test exercised no seals/compactions: %+v", st)
	}
}
