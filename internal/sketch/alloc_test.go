package sketch

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hamming"
	"repro/internal/rng"
)

// TestAllocsApplyBatchInto pins the batch kernel at zero allocations over
// a d × rows × batch matrix of shapes: it writes only into the caller's
// destinations, so a round's batch of sketches costs the query path no
// garbage whatever the family's shape or the chunk size.
func TestAllocsApplyBatchInto(t *testing.T) {
	r := rng.New(9)
	for _, d := range []int{256, 1024, 4096} {
		for _, rows := range []int{128, 256} {
			m := NewBernoulli(r, rows, d, 0.01)
			for _, batch := range []int{8, 32} {
				xs := make([]bitvec.Vector, batch)
				dsts := make([]bitvec.Vector, batch)
				for q := range xs {
					xs[q] = hamming.Random(r, d)
					dsts[q] = bitvec.New(rows)
				}
				if got := testing.AllocsPerRun(20, func() { m.ApplyBatchInto(dsts, xs) }); got != 0 {
					t.Errorf("ApplyBatchInto d=%d rows=%d batch=%d allocates %v/op, want 0", d, rows, batch, got)
				}
			}
		}
	}
}
