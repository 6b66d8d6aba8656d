package cellprobe

import (
	"math/rand"
	"sync"
	"testing"
)

// randomKey draws a payload whose length covers every storage shape —
// empty, inline, exactly AddrWords, spilled (> AddrWords), and now and then
// a row larger than a whole arena chunk — over a three-symbol alphabet, so
// streams revisit keys and distinct keys share long prefixes.
func randomKey(r *rand.Rand) []uint64 {
	lengths := []int{0, 1, 2, 6, 7, AddrWords, AddrWords + 1, 40}
	n := lengths[r.Intn(len(lengths))]
	if r.Intn(400) == 0 {
		n = memoMaxChunkWords + r.Intn(3)
	}
	key := make([]uint64, n)
	for i := range key {
		key[i] = uint64(r.Intn(3))
	}
	if n > 7 { // long keys: vary one word so they are not all distinct-by-luck
		key[r.Intn(n)] = uint64(r.Intn(50))
	}
	return key
}

// randomWord draws a cell content of every kind, with numbers up to the
// packed field's limit.
func randomWord(r *rand.Rand) Word {
	v := r.Intn(1000)
	switch r.Intn(8) {
	case 0:
		v = memoMaxValue
	case 1:
		v = memoMaxValue - r.Intn(1000)
	}
	switch r.Intn(4) {
	case 0:
		return EmptyWord
	case 1:
		return IntWord(v)
	case 2:
		return Word{Kind: Kind(7 + r.Intn(200)), Value: v} // a kind this package does not define
	default:
		return PointWord(v)
	}
}

// TestMemoAgainstMapModel replays one random put/get stream into the flat
// memo and into the map[Addr]Word it replaced; every read must agree, and
// the stream is long enough to double the slot array many times and to
// cross arena-chunk boundaries at every chunk size.
func TestMemoAgainstMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var m memo
	model := map[Addr]Word{}
	tag := GenericTag(0)
	check := func(key []uint64) {
		t.Helper()
		want, wantOK := model[VecAddr(tag, key)]
		got, ok := m.get(hashWords(key), key)
		if ok != wantOK || got != want {
			t.Fatalf("get(len %d) = %v, %v; model has %v, %v", len(key), got, ok, want, wantOK)
		}
	}
	if _, ok := m.get(hashWords(nil), nil); ok {
		t.Fatal("zero-value memo reports a hit")
	}
	var keys [][]uint64
	for op := 0; op < 60000; op++ {
		var key []uint64
		if len(keys) > 0 && r.Intn(3) == 0 {
			key = keys[r.Intn(len(keys))]
		} else {
			key = randomKey(r)
		}
		check(key)
		if r.Intn(2) == 0 {
			w := randomWord(r)
			m.put(hashWords(key), key, w)
			if _, seen := model[VecAddr(tag, key)]; !seen { // first content wins
				model[VecAddr(tag, key)] = w
				keys = append(keys, key)
			}
			check(key)
		}
		if m.n != len(model) {
			t.Fatalf("after %d ops the memo holds %d rows, the model %d", op, m.n, len(model))
		}
	}
	for _, key := range keys {
		check(key)
	}
	if len(m.slots) <= memoMinSlots<<4 || m.words < 8*memoMaxChunkWords {
		t.Fatalf("stream too short to exercise growth: %d slots, %d arena words", len(m.slots), m.words)
	}
	oversize := 0
	for _, c := range m.chunks {
		if cap(c) > memoMaxChunkWords {
			oversize++
		}
		if cap(c) > 1<<memoOffsetBits {
			t.Fatalf("chunk of %d words is beyond what a row ref can address", cap(c))
		}
	}
	if oversize == 0 {
		t.Fatal("no row was larger than a standard chunk")
	}
}

// TestMemoLongestPayload stores the longest payload an Addr can carry.
func TestMemoLongestPayload(t *testing.T) {
	var m memo
	m.put(hashWords([]uint64{1}), []uint64{1}, IntWord(1))
	long := make([]uint64, maxAddrWords)
	long[maxAddrWords-1] = 9
	m.put(hashWords(long), long, PointWord(3))
	m.put(hashWords([]uint64{2}), []uint64{2}, IntWord(2))
	if w, ok := m.get(hashWords(long), long); !ok || w != PointWord(3) {
		t.Fatalf("longest payload: %v, %v", w, ok)
	}
	long[0] = 1
	if _, ok := m.get(hashWords(long), long); ok {
		t.Fatal("a payload differing in one word hit")
	}
	for v := uint64(1); v <= 2; v++ {
		if w, ok := m.get(hashWords([]uint64{v}), []uint64{v}); !ok || w != IntWord(int(v)) {
			t.Fatalf("neighbour row %d: %v, %v", v, w, ok)
		}
	}
}

// TestMemoContentLosslessOrPanics: a content the packed header cannot hold
// must be refused loudly, never truncated.
func TestMemoContentLosslessOrPanics(t *testing.T) {
	for _, w := range []Word{
		EmptyWord, IntWord(0), IntWord(memoMaxValue), PointWord(0), PointWord(memoMaxValue),
		{Kind: 255, Value: memoMaxValue},
	} {
		for _, n := range []int{0, 3, maxAddrWords} {
			h := packHeader(w, n)
			if unpackHeader(h) != w || headerLen(h) != n {
				t.Errorf("%+v with %d words round-trips to %+v with %d", w, n, unpackHeader(h), headerLen(h))
			}
		}
	}
	for _, w := range []Word{
		IntWord(memoMaxValue + 1), PointWord(memoMaxValue + 1), IntWord(-1), PointWord(-1),
		{Kind: Point, Index: 1, Value: 1}, {Kind: Int, Index: 1}, {Kind: Empty, Index: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("packing %+v did not panic", w)
				}
			}()
			var m memo
			m.put(0, nil, w)
		}()
	}
}

// TestOracleConcurrentMixedLookups hammers one oracle from many goroutines
// with overlapping keys of every storage shape while the memo grows; run
// under -race it also checks the locking around the flat store.
func TestOracleConcurrentMixedLookups(t *testing.T) {
	content := func(a Addr) Word {
		var buf [AddrWords]uint64
		return IntWord(int(hashWords(a.AppendPayload(buf[:0])) % 1000))
	}
	var meter Meter
	o := NewOracle(GenericTag(2), 20, 8, &meter, content)
	r := rand.New(rand.NewSource(8))
	addrs := make([]Addr, 600)
	distinct := map[Addr]bool{}
	for i := range addrs {
		addrs[i] = VecAddr(GenericTag(2), randomKey(r))
		distinct[addrs[i]] = true
	}
	const workers, lookups = 8, 3000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < lookups; i++ {
				a := addrs[r.Intn(len(addrs))]
				if got, want := o.Lookup(a), content(a); got != want {
					t.Errorf("Lookup = %v, want %v", got, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if o.MemoSize() > len(distinct) {
		t.Errorf("memo holds %d cells for %d distinct addresses", o.MemoSize(), len(distinct))
	}
	if got := meter.CellEvals() + meter.MemoHits(); got != workers*lookups {
		t.Errorf("meter saw %d lookups, want %d", got, workers*lookups)
	}
	for a := range distinct {
		if got, want := o.Lookup(a), content(a); got != want {
			t.Fatalf("after the run Lookup = %v, want %v", got, want)
		}
	}
	if o.MemoSize() != len(distinct) {
		t.Errorf("memo holds %d cells, want %d", o.MemoSize(), len(distinct))
	}
}

// BenchmarkOracleLookupHit times a memo hit on a ball-table-shaped address
// (6 payload words) among 64 Ki memoised cells. A hit must not allocate.
func BenchmarkOracleLookupHit(b *testing.B) {
	o := NewOracle(BallTag(0), 336, 513, &Meter{}, func(a Addr) Word { return PointWord(int(a.Word(0))) })
	r := rand.New(rand.NewSource(1))
	addrs := make([]Addr, 1<<16)
	for i := range addrs {
		addrs[i] = VecAddr(BallTag(0), []uint64{uint64(i), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()})
		o.Lookup(addrs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := o.Lookup(addrs[i&(len(addrs)-1)]); w.Index != i&(len(addrs)-1) {
			b.Fatalf("hit returned %v", w)
		}
	}
}
