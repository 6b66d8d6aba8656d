package cellprobe

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Table is a table structure in the cell-probe model: a code assigning a
// word to every address of its address space. Implementations must be safe
// for concurrent Lookup calls (queries probe in parallel).
type Table interface {
	// Tag is the table's typed identity (class + level), embedded in every
	// address probed against it.
	Tag() Tag
	// ID renders the tag for transcripts and reports (e.g. "T[3]").
	ID() string
	// Lookup returns the content of the cell at addr. The payload encoding
	// is table specific; addresses are opaque to the prober.
	Lookup(addr Addr) Word
	// NominalLogCells returns log₂ of the table's cell count in the model
	// (the paper's n^{O(1)} accounting), independent of how many cells the
	// simulator ever evaluates.
	NominalLogCells() float64
	// WordBits returns the model word size w of this table in bits.
	WordBits() int
}

// Meter counts simulation-side work that is *not* a model quantity: how
// many distinct cells were lazily evaluated and how many were served from
// the memo. Experiment E8 reports these against the nominal sizes.
type Meter struct {
	cellEvals atomic.Int64
	memoHits  atomic.Int64
}

// CellEvals returns the number of distinct lazy cell evaluations.
func (m *Meter) CellEvals() int64 { return m.cellEvals.Load() }

// MemoHits returns the number of lookups served from the memo.
func (m *Meter) MemoHits() int64 { return m.memoHits.Load() }

// Evaler computes a cell's content from its address. Implementations
// must be deterministic functions of the address payload — the result
// represents what the preprocessing stage would have stored in that cell,
// and the oracle memoises it under the payload alone.
type Evaler interface {
	EvalCell(addr Addr) Word
}

// BatchEvaler is an Evaler that can compute many cells of its table at
// once: EvalCells sets out[i] to EvalCell(addrs[i]) for every i. A table
// whose cold cell costs a scan of the database implements it to answer a
// whole group of cells with one scan (Oracle.LookupEach hands it a round's
// misses together).
type BatchEvaler interface {
	Evaler
	EvalCells(addrs []Addr, out []Word)
}

// funcEvaler adapts a plain function to Evaler for NewOracle.
type funcEvaler struct {
	fn func(addr Addr) Word
}

func (f funcEvaler) EvalCell(addr Addr) Word { return f.fn(addr) }

// Oracle is a Table whose cells are computed on demand by a pure function
// of the address and memoized in a flat exact-key store (see memo), so
// steady-state lookups allocate nothing; the store owns no memory until
// the first miss, keeping a freshly opened index's table scaffolding
// allocation-light (a snapshot open builds O(L·shards) oracles before the
// first query arrives).
type Oracle struct {
	tag      Tag
	logCells float64
	wordBits int
	addrBits int // ⌈log₂ cells⌉, what one probe's address costs to send
	ev       Evaler
	meter    *Meter

	mu   sync.RWMutex
	memo memo
}

// NewOracle builds an oracle-backed table over a plain function. meter
// may be nil.
func NewOracle(tag Tag, logCells float64, wordBits int, meter *Meter, fn func(addr Addr) Word) *Oracle {
	return NewOracleEval(tag, logCells, wordBits, meter, funcEvaler{fn})
}

// NewOracleEval is NewOracle over an Evaler value: the tables package
// passes its table types directly (a pointer in an interface), avoiding
// the per-oracle method-value closure a func parameter would allocate.
func NewOracleEval(tag Tag, logCells float64, wordBits int, meter *Meter, ev Evaler) *Oracle {
	return &Oracle{
		tag:      tag,
		logCells: logCells,
		wordBits: wordBits,
		addrBits: ceilLog(logCells),
		ev:       ev,
		meter:    meter,
	}
}

// Tag implements Table.
func (o *Oracle) Tag() Tag { return o.tag }

// ID implements Table.
func (o *Oracle) ID() string { return o.tag.String() }

// NominalLogCells implements Table.
func (o *Oracle) NominalLogCells() float64 { return o.logCells }

// WordBits implements Table.
func (o *Oracle) WordBits() int { return o.wordBits }

// Lookup implements Table, evaluating and memoizing the cell on first use.
func (o *Oracle) Lookup(addr Addr) Word {
	var buf [AddrWords]uint64
	key := addr.AppendPayload(buf[:0])
	hash := hashWords(key)
	o.mu.RLock()
	w, ok := o.memo.get(hash, key)
	o.mu.RUnlock()
	if ok {
		if o.meter != nil {
			o.meter.memoHits.Add(1)
		}
		return w
	}
	w = o.ev.EvalCell(addr)
	o.mu.Lock()
	// Another goroutine may have raced us; determinism makes that benign.
	o.memo.put(hash, key, w)
	o.mu.Unlock()
	if o.meter != nil {
		o.meter.cellEvals.Add(1)
	}
	return w
}

// lookupScratch is LookupEach's working memory: for every miss of a call,
// its position in the call and the distinct cell it names; for every
// distinct cell, its hash, address and evaluated content.
type lookupScratch struct {
	at, cell []int
	hashes   []uint64
	addrs    []Addr
	words    []Word
}

var lookupPool = sync.Pool{New: func() any { return new(lookupScratch) }}

// LookupEach sets out[i] to Lookup(addrs[i]) for every i. The cells not in
// the memo are evaluated together — by one EvalCells call when the evaler
// is a BatchEvaler — and an address that occurs twice among them is
// evaluated once, its repeat served from that result as the memo would
// have served it. The memo ends up holding the cells, and the meter the
// counts, that the Lookup calls made in order would have left.
func (o *Oracle) LookupEach(addrs []Addr, out []Word) {
	sc := lookupPool.Get().(*lookupScratch)
	at, cell := sc.at[:0], sc.cell[:0]
	hashes, miss := sc.hashes[:0], sc.addrs[:0]
	var buf [AddrWords]uint64
	o.mu.RLock()
	for i := range addrs {
		key := addrs[i].AppendPayload(buf[:0])
		hash := hashWords(key)
		if w, ok := o.memo.get(hash, key); ok {
			out[i] = w
			continue
		}
		// A miss names a new distinct cell unless an earlier miss of this
		// call has the same address (the hash screens the comparison).
		e := 0
		for e < len(miss) && (hashes[e] != hash || miss[e] != addrs[i]) {
			e++
		}
		if e == len(miss) {
			hashes, miss = append(hashes, hash), append(miss, addrs[i])
		}
		at, cell = append(at, i), append(cell, e)
	}
	o.mu.RUnlock()
	if len(miss) > 0 {
		words := slices.Grow(sc.words[:0], len(miss))[:len(miss)]
		sc.words = words
		if be, ok := o.ev.(BatchEvaler); ok {
			be.EvalCells(miss, words)
		} else {
			for e := range miss {
				words[e] = o.ev.EvalCell(miss[e])
			}
		}
		o.mu.Lock()
		// Another goroutine may have raced us; determinism makes that benign.
		for e := range miss {
			o.memo.put(hashes[e], miss[e].AppendPayload(buf[:0]), words[e])
		}
		o.mu.Unlock()
		for j, i := range at {
			out[i] = words[cell[j]]
		}
	}
	if o.meter != nil {
		o.meter.cellEvals.Add(int64(len(miss)))
		o.meter.memoHits.Add(int64(len(addrs) - len(miss)))
	}
	sc.at, sc.cell, sc.hashes, sc.addrs = at, cell, hashes, miss
	lookupPool.Put(sc)
}

// MemoSize returns the number of materialized cells.
func (o *Oracle) MemoSize() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.memo.n
}
