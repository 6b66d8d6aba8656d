//go:build !race

package table

import (
	"testing"

	"repro/internal/hamming"
	"repro/internal/rng"
)

// Not under -race: the detector makes sync.Pool drop items at random, and
// a dropped member list is re-allocated.

// TestColdEvalAllocatesNothing: a memo miss on any table kind — the ball
// scan, the radius-1 membership scan, Algorithm 2's C_i/D_{i,j} rebuild —
// runs on stack buffers and pooled scratch.
func TestColdEvalAllocatesNothing(t *testing.T) {
	fam, db := testFamily(t, 512, 300, 2)
	set := NewSet(fam, db)
	set.Materialize(1)
	r := rng.New(21)
	x := hamming.AtDistance(r, db[3], 512, 20)
	u := fam.L - 2
	q := AuxQuery{SketchX: fam.Accurate[u].Apply(x), Levels: []int{u / 2}}
	q.Coarse = append(q.Coarse, fam.Coarse[u/2].Apply(x))
	auxAddr := set.Aux[u].Address(q)
	if len(set.Ball[u].MembersOfC(q.SketchX)) == 0 {
		t.Fatal("C_u is empty: the auxiliary eval would not exercise its member scratch")
	}
	ballAddr, nearAddr := set.Ball[4].Address(x), set.Near.Address(x)
	for name, eval := range map[string]func(){
		"ball": func() { set.Ball[4].EvalCell(ballAddr) },
		"near": func() { set.Near.EvalCell(nearAddr) },
		"aux":  func() { set.Aux[u].EvalCell(auxAddr) },
	} {
		if n := testing.AllocsPerRun(50, eval); n != 0 {
			t.Errorf("cold %s cell: %v allocs per eval, want 0", name, n)
		}
	}
}
