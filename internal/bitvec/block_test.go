package bitvec

import "testing"

func TestBlockRoundtrip(t *testing.T) {
	vs := []Vector{{1, 2}, {3, 4}, {5, 6}}
	b := BlockOf(vs)
	if b.Rows() != 3 || b.RowWords != 2 {
		t.Fatalf("block shape %dx%d", b.Rows(), b.RowWords)
	}
	for i, v := range vs {
		if !Equal(b.Row(i), v) {
			t.Errorf("row %d = %v, want %v", i, b.Row(i), v)
		}
	}
	// Rows are views: SetRow writes through the backing array.
	b.SetRow(1, Vector{7, 8})
	if b.Words[2] != 7 || b.Words[3] != 8 {
		t.Errorf("SetRow did not write the backing array: %v", b.Words)
	}
	views := b.Vectors()
	views[0][0] = 9
	if b.Words[0] != 9 {
		t.Error("Vectors() returned copies, want views")
	}
}

func TestBlockSliceShares(t *testing.T) {
	b := NewBlock(4, 128)
	s := b.Slice(1, 3)
	if s.Rows() != 2 {
		t.Fatalf("slice rows = %d", s.Rows())
	}
	s.Row(0)[0] = 42
	if b.Row(1)[0] != 42 {
		t.Error("Slice does not share the backing array")
	}
}

func TestBlockOfRejectsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged BlockOf did not panic")
		}
	}()
	BlockOf([]Vector{{1}, {2, 3}})
}
