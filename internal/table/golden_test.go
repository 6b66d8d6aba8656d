package table_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
	"repro/internal/core"
	"repro/internal/hamming"
	"repro/internal/rng"
	"repro/internal/table"
)

// TestSchemesMatchReferenceEvalers is the golden test of the cold-cell
// path: on fixed seeded instances, Algorithm 1, Algorithm 2 and λ-ANNS
// must return the same answers and the same cell-probe accounting —
// rounds, probes, per-round parallelism, bits read, address bits sent —
// whether the tables evaluate cells with the scan kernel and flat memo or
// with the reference row-by-row evalers, and must materialise the same
// cells doing so. Its batch leg holds Algorithm 1's round-synchronous
// batches to the same reference, query by query.
func TestSchemesMatchReferenceEvalers(t *testing.T) {
	for _, shape := range []struct {
		d, n, queries int
		ks            []int
	}{
		{256, 600, 60, []int{1, 2, 3, 8}},  // 4-word sketches, 4-word points
		{512, 3000, 24, []int{1, 2, 3, 8}}, // 5-word sketches, 8-word points
		{192, 90, 40, []int{1, 2, 3, 8}},   // 3-word sketches and points: the generic body
		{256, 8200, 10, []int{3}},          // 6-word sketches: the multi-key kernel's unrolled body
		// Large d, k = 12: the regime where Algorithm 2's shrinking phases
		// (and so the auxiliary tables) run; points are 256 words, so the
		// membership addresses spill past the inline payload.
		{16384, 150, 15, []int{12}},
	} {
		t.Run(fmt.Sprintf("d=%d,n=%d", shape.d, shape.n), func(t *testing.T) {
			r := rng.New(uint64(shape.n))
			db := make([]bitvec.Vector, shape.n)
			for i := range db {
				db[i] = hamming.Random(r, shape.d)
			}
			db[shape.n/2] = db[3].Clone() // a duplicate point: the lower index must win
			var queries []bitvec.Vector
			for i := 0; i < shape.queries; i++ {
				z := db[r.Intn(shape.n)]
				switch i % 5 {
				case 0:
					queries = append(queries, hamming.AtDistance(r, z, shape.d, shape.d/10))
				case 1:
					queries = append(queries, hamming.AtDistance(r, z, shape.d, 3))
				case 2:
					queries = append(queries, hamming.Random(r, shape.d))
				case 3:
					queries = append(queries, z.Clone()) // degenerate: x ∈ B
				default:
					queries = append(queries, hamming.AtDistance(r, z, shape.d, 1)) // degenerate: x ∈ N₁(B)
				}
			}
			queries = append(queries, db[shape.n/2].Clone())

			for _, k := range shape.ks {
				p := core.Params{K: k, Seed: 17}
				idx := core.BuildIndex(db, shape.d, p)
				ref := core.BuildIndex(db, shape.d, p)
				table.UseReferenceEvalers(ref.Tables)
				type scheme struct {
					name string
					run  func(bitvec.Vector) core.Result
				}
				schemes := func(ix *core.Index) []scheme {
					lam := core.NewLambda(ix)
					out := []scheme{
						{"algo1", core.NewAlgo1(ix, k).Query},
						{"lambda(4)", func(x bitvec.Vector) core.Result { return lam.QueryNear(x, 4) }},
						{"lambda(d/8)", func(x bitvec.Vector) core.Result { return lam.QueryNear(x, float64(shape.d)/8) }},
					}
					if k >= 2 {
						out = append(out, scheme{"algo2", core.NewAlgo2(ix, k).Query})
					}
					return out
				}
				got, want := schemes(idx), schemes(ref)
				for pass := 0; pass < 2; pass++ { // cold, then from the memo
					for si := range got {
						for qi, x := range queries {
							g, w := got[si].run(x), want[si].run(x)
							if g.Index != w.Index || g.Degenerate != w.Degenerate || g.Violated != w.Violated ||
								fmt.Sprint(g.Err) != fmt.Sprint(w.Err) || !reflect.DeepEqual(g.Stats, w.Stats) {
								t.Fatalf("k=%d %s query %d pass %d:\n got %+v\nwant %+v", k, got[si].name, qi, pass, g, w)
							}
						}
					}
				}
				auxCells := 0
				for _, a := range idx.Tables.Aux {
					auxCells += a.Table().(*cellprobe.Oracle).MemoSize()
				}
				if k == 12 && auxCells == 0 {
					t.Fatalf("k=%d: Algorithm 2 never probed an auxiliary table", k)
				}
				if g, w := idx.Tables.Space(), ref.Tables.Space(); g != w {
					t.Fatalf("k=%d: space accounting %+v, reference %+v", k, g, w)
				}

				// Batch leg: Algorithm 1 run round-synchronously over the
				// kernel tables (joint flushes, one multi-key scan per table
				// per round) against the same queries run one by one over
				// the reference evalers, both from cold. Sizes straddle the
				// kernel's 8 lanes; every batch past the first holds a point
				// twice (its cells are cold twice in one round), and the
				// query mix puts database points (answered in round 1 while
				// the rest continue) and uniform points (whose later rounds
				// probe different levels) side by side.
				bidx, bref := core.BuildIndex(db, shape.d, p), core.BuildIndex(db, shape.d, p)
				table.UseReferenceEvalers(bref.Tables)
				batch, seq := core.NewAlgo1(bidx, k), core.NewAlgo1(bref, k)
				bc := new(core.BatchCtx)
				next := 0
				for _, size := range []int{1, 7, 8, 9, 21} {
					xs := make([]bitvec.Vector, size)
					for i := range xs {
						xs[i] = queries[next%len(queries)]
						next++
					}
					xs[size-1] = xs[0]
					out := make([]core.Result, size)
					batch.QueryEachWithCtx(xs, bc, out)
					for i, x := range xs {
						if g, w := out[i], seq.Query(x); g.Index != w.Index || g.Degenerate != w.Degenerate || g.Violated != w.Violated ||
							fmt.Sprint(g.Err) != fmt.Sprint(w.Err) || !reflect.DeepEqual(g.Stats, w.Stats) {
							t.Fatalf("k=%d batch of %d, query %d:\n got %+v\nwant %+v", k, size, i, g, w)
						}
					}
				}
				if g, w := bidx.Tables.Space(), bref.Tables.Space(); g != w {
					t.Fatalf("k=%d: batches left space accounting %+v, sequential reference %+v", k, g, w)
				}
			}
		})
	}
}
