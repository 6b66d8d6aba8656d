package cellprobe

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// countingBatch is a BatchEvaler that records how it was called.
type countingBatch struct {
	calls, cells int
}

func (e *countingBatch) EvalCell(addr Addr) Word { return IntWord(int(addr.Word(0)) * 3) }

func (e *countingBatch) EvalCells(addrs []Addr, out []Word) {
	e.calls++
	e.cells += len(addrs)
	for i := range addrs {
		out[i] = e.EvalCell(addrs[i])
	}
}

// TestLookupEachMatchesLookup: on a random mix of memoised, cold and
// repeated addresses, LookupEach returns what Lookup returns and leaves
// the memo and the meter as the Lookup calls made in order leave them —
// for an evaler with EvalCells and for one without.
func TestLookupEachMatchesLookup(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, batch := range []bool{true, false} {
		var gm, wm Meter
		ev := &countingBatch{}
		var got *Oracle
		if batch {
			got = NewOracleEval(GenericTag(1), 10, 8, &gm, ev)
		} else {
			got = NewOracle(GenericTag(1), 10, 8, &gm, ev.EvalCell)
		}
		want := NewOracle(GenericTag(1), 10, 8, &wm, ev.EvalCell)
		for call := 0; call < 200; call++ {
			addrs := make([]Addr, 1+r.Intn(20))
			for i := range addrs {
				addrs[i] = wordAddr(uint64(r.Intn(60))) // 60 cells: repeats inside and across calls
			}
			out := make([]Word, len(addrs))
			got.LookupEach(addrs, out)
			for i := range addrs {
				if w := want.Lookup(addrs[i]); out[i] != w {
					t.Fatalf("batch=%v call %d: cell %d = %v, Lookup says %v", batch, call, i, out[i], w)
				}
			}
			if got.MemoSize() != want.MemoSize() || gm.CellEvals() != wm.CellEvals() || gm.MemoHits() != wm.MemoHits() {
				t.Fatalf("batch=%v call %d: memo %d evals %d hits %d, Lookup in order leaves %d, %d, %d", batch, call,
					got.MemoSize(), gm.CellEvals(), gm.MemoHits(), want.MemoSize(), wm.CellEvals(), wm.MemoHits())
			}
		}
		if batch && (ev.cells != got.MemoSize() || ev.calls >= ev.cells) {
			t.Fatalf("EvalCells saw %d cells in %d calls for %d distinct cells: repeats were evaluated or cells not grouped",
				ev.cells, ev.calls, got.MemoSize())
		}
	}
}

// plainTable is a Table that is not an Oracle: the joint flush must read
// it cell by cell.
type plainTable struct{}

func (plainTable) Tag() Tag                 { return GenericTag(9) }
func (plainTable) ID() string               { return "plain" }
func (plainTable) Lookup(a Addr) Word       { return IntWord(int(a.Word(0)) + 1000) }
func (plainTable) NominalLogCells() float64 { return 5 }
func (plainTable) WordBits() int            { return 11 }

// TestFlushEachMatchesFlush drives random multi-round executions twice —
// every context flushing alone, and all of them through FlushEach — over
// twin tables, and requires the same contents, the same errors, the same
// Stats and the same transcript per context, and the same memo per table.
// Budgets differ between contexts, so some run out of rounds (and some
// stage an empty round) while the others go on.
func TestFlushEachMatchesFlush(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	mkTables := func() []Table {
		ts := []Table{plainTable{}}
		for i := 0; i < 4; i++ {
			i := i
			ts = append(ts, NewOracle(GenericTag(i), float64(8+i), 16+i, nil, func(a Addr) Word {
				return IntWord(int(a.Word(0))*7 + i)
			}))
		}
		return ts
	}
	for trial := 0; trial < 50; trial++ {
		solo, joint := mkTables(), mkTables()
		n := 1 + r.Intn(10)
		sc, jc := make([]*QueryCtx, n), make([]*QueryCtx, n)
		for i := range sc {
			k := r.Intn(4) // 0 = unlimited
			sc[i], jc[i] = NewRecordingQueryCtx(k), NewRecordingQueryCtx(k)
		}
		for round := 0; round < 4; round++ {
			for i := range sc {
				for p := r.Intn(6); p > 0; p-- { // 0 probes: an empty round
					ti, a := r.Intn(len(solo)), wordAddr(uint64(r.Intn(12)))
					sc[i].Stage(solo[ti], a)
					jc[i].Stage(joint[ti], a)
				}
			}
			errs := make([]error, n)
			FlushEach(jc, errs)
			for i := range sc {
				words, err := sc[i].Flush()
				if (err == nil) != (errs[i] == nil) || errors.Is(err, ErrRoundsExhausted) != errors.Is(errs[i], ErrRoundsExhausted) {
					t.Fatalf("trial %d round %d ctx %d: joint error %v, solo error %v", trial, round, i, errs[i], err)
				}
				if err == nil && !reflect.DeepEqual(words, jc[i].Words()) {
					t.Fatalf("trial %d round %d ctx %d: joint contents %v, solo %v", trial, round, i, jc[i].Words(), words)
				}
				if !reflect.DeepEqual(sc[i].Stats(), jc[i].Stats()) {
					t.Fatalf("trial %d round %d ctx %d: joint stats %+v, solo %+v", trial, round, i, jc[i].Stats(), sc[i].Stats())
				}
			}
		}
		for i := range sc {
			st, jt := sc[i].Transcript(), jc[i].Transcript()
			if len(st) != len(jt) {
				t.Fatalf("trial %d ctx %d: transcript lengths %d vs %d", trial, i, len(jt), len(st))
			}
			for e := range st {
				if st[e].Round != jt[e].Round || st[e].Addr != jt[e].Addr || st[e].Content != jt[e].Content ||
					st[e].Table.Tag() != jt[e].Table.Tag() {
					t.Fatalf("trial %d ctx %d: transcript entry %d: joint %+v, solo %+v", trial, i, e, jt[e], st[e])
				}
			}
		}
		for ti := 1; ti < len(solo); ti++ {
			if s, j := solo[ti].(*Oracle).MemoSize(), joint[ti].(*Oracle).MemoSize(); s != j {
				t.Fatalf("trial %d table %d: joint run materialised %d cells, solo %d", trial, ti, j, s)
			}
		}
	}
}
