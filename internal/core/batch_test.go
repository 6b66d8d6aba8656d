package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hamming"
	"repro/internal/rng"
)

// sameResult pins the full outcome — answer, flags, error text and every
// accounting field — between a round-synchronous and a sequential run.
func sameResult(t *testing.T, label string, q int, got, want Result) {
	t.Helper()
	if got.Index != want.Index || got.Degenerate != want.Degenerate || got.Violated != want.Violated ||
		fmt.Sprint(got.Err) != fmt.Sprint(want.Err) || !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("%s: query %d:\n got %+v\nwant %+v", label, q, got, want)
	}
}

// mixedQueries draws n queries around db: near a database point at
// growing distances, uniformly random, and (every fifth) a database point
// itself, which is answered by the degenerate probe in round 1.
func mixedQueries(r *rng.Source, db []bitvec.Vector, d, n int) []bitvec.Vector {
	xs := make([]bitvec.Vector, n)
	for i := range xs {
		switch {
		case i%5 == 4:
			xs[i] = db[i%len(db)].Clone()
		case i%2 == 0:
			xs[i] = hamming.AtDistance(r, db[i%len(db)], d, 1+i*5%d)
		default:
			xs[i] = hamming.Random(r, d)
		}
	}
	return xs
}

// TestQueryEachIdentity: a chunk run round-synchronously must be
// bit-identical, query by query, to the same queries run alone — answers
// and probe/round/bit accounting — and must materialise the same cells,
// for budgets that take the shrinking path and the completion-only path.
// The batch holds a database point (it leaves in round 1 while the others
// continue) and a repeated query (its cells are cold twice in one round).
func TestQueryEachIdentity(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		idx, db := buildTestIndex(t, 160, 60, Params{K: k})
		twin, _ := buildTestIndex(t, 160, 60, Params{K: k})
		a, seq := NewAlgo1(idx, k), NewAlgo1(twin, k)
		xs := mixedQueries(rng.New(uint64(4000+k)), db, 160, 13) // deliberately not the chunk width
		xs[7] = xs[2]
		b := new(BatchCtx)
		out := make([]Result, len(xs))
		a.QueryEachWithCtx(xs, b, out)
		left := false
		for q, x := range xs {
			sameResult(t, fmt.Sprintf("k=%d", k), q, out[q], seq.Query(x))
			left = left || out[q].Degenerate
		}
		if !left {
			t.Fatalf("k=%d: no query of the batch was answered by the degenerate probe", k)
		}
		if g, w := idx.Tables.Space(), twin.Tables.Space(); g.MaterializedWord != w.MaterializedWord || g.CellEvals != w.CellEvals {
			t.Fatalf("k=%d: batch materialised %+v, sequential %+v", k, g, w)
		}
	}
}

// TestQueryEachReusesContext: nothing of one chunk may leak into the next
// on the same BatchCtx — not its sketches, not its search state — whether
// the next chunk is larger, smaller, or the same queries again.
func TestQueryEachReusesContext(t *testing.T) {
	idx, db := buildTestIndex(t, 128, 48, Params{K: 3})
	a := NewAlgo1(idx, 3)
	r := rng.New(4100)
	b := new(BatchCtx)
	first := mixedQueries(r, db, 128, 5)
	for pass, xs := range [][]bitvec.Vector{first, mixedQueries(r, db, 128, 11), mixedQueries(r, db, 128, 2), first} {
		out := make([]Result, len(xs))
		a.QueryEachWithCtx(xs, b, out)
		for q, x := range xs {
			sameResult(t, fmt.Sprintf("pass %d", pass), q, out[q], a.Query(x))
		}
	}
}
