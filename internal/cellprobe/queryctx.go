package cellprobe

import (
	"errors"
	"fmt"
)

// ErrRoundsExhausted is returned by QueryCtx.Flush when the algorithm
// attempts more rounds than its adaptivity budget k allows.
var ErrRoundsExhausted = errors.New("cellprobe: round budget exhausted")

// Ref addresses one cell: a table and a binary address within it.
type Ref struct {
	Table Table
	Addr  Addr
}

// Stats is the model-level accounting of one query execution.
type Stats struct {
	Rounds         int   // rounds of parallel probes used
	Probes         int   // total cell-probes
	ProbesPerRound []int // per-round parallel probe counts
	BitsRead       int64 // Σ wordBits over probed cells (communication view)
	AddrBitsSent   int64 // Σ ⌈log₂ cells⌉ over probes (Prop. 18 Alice side)
}

// MaxProbesInRound returns the largest single-round probe count.
func (s Stats) MaxProbesInRound() int {
	m := 0
	for _, p := range s.ProbesPerRound {
		if p > m {
			m = p
		}
	}
	return m
}

// Add accumulates other into s (for aggregating boosted / repeated runs).
func (s *Stats) Add(other Stats) {
	if other.Rounds > s.Rounds {
		s.Rounds = other.Rounds
	}
	s.Probes += other.Probes
	s.BitsRead += other.BitsRead
	s.AddrBitsSent += other.AddrBitsSent
	for i, p := range other.ProbesPerRound {
		if i < len(s.ProbesPerRound) {
			s.ProbesPerRound[i] += p
		} else {
			s.ProbesPerRound = append(s.ProbesPerRound, p)
		}
	}
}

// Clone returns a copy of s whose ProbesPerRound no longer aliases s.
// Query entry points that release a pooled context call this to detach the
// accounting they hand back.
func (s Stats) Clone() Stats {
	if s.ProbesPerRound != nil {
		s.ProbesPerRound = append([]int(nil), s.ProbesPerRound...)
	}
	return s
}

// reset clears the accounting while keeping the per-round slice capacity.
func (s *Stats) reset() {
	ppr := s.ProbesPerRound[:0]
	*s = Stats{ProbesPerRound: ppr}
}

// TranscriptEntry records one probe for the communication translation
// (Proposition 18) and for debugging.
type TranscriptEntry struct {
	Round   int
	Table   Table
	Addr    Addr
	Content Word
}

// QueryCtx is the per-query execution context: it mediates all table
// access of a cell-probing algorithm, enforces limited adaptivity (the
// algorithm stages a whole round of probes at once, so intra-round probes
// cannot depend on each other by construction, and no more than k rounds
// are allowed), and owns every buffer the execution needs — the staged
// probe refs, the round's result words, the per-round accounting, and the
// optional transcript. A context is created once per request (or drawn
// from a pool) and reused across rounds and across queries via Reset, so
// steady-state query execution allocates nothing.
type QueryCtx struct {
	k      int // 0 means unlimited (fully adaptive accounting only)
	stats  Stats
	record bool

	transcript []TranscriptEntry
	pending    []Ref  // probes staged for the next Flush
	words      []Word // result buffer, overwritten by each Flush
}

// NewQueryCtx returns a context with a round budget of k (0 = unlimited).
func NewQueryCtx(k int) *QueryCtx {
	return &QueryCtx{k: k}
}

// NewRecordingQueryCtx additionally keeps a full transcript, which the
// communication-protocol translation consumes. Recording contexts are for
// diagnostics: appending transcript entries allocates.
func NewRecordingQueryCtx(k int) *QueryCtx {
	return &QueryCtx{k: k, record: true}
}

// Reset prepares the context for a fresh query under round budget k,
// keeping every buffer's capacity (and the recording mode it was
// constructed with).
func (c *QueryCtx) Reset(k int) {
	c.k = k
	c.stats.reset()
	c.transcript = c.transcript[:0]
	c.pending = c.pending[:0]
}

// RoundBudget returns k (0 = unlimited).
func (c *QueryCtx) RoundBudget() int { return c.k }

// RoundsLeft returns how many rounds remain (MaxInt-ish when unlimited).
func (c *QueryCtx) RoundsLeft() int {
	if c.k == 0 {
		return int(^uint(0) >> 1)
	}
	return c.k - c.stats.Rounds
}

// Stage adds one probe to the pending round. Nothing is read until Flush.
func (c *QueryCtx) Stage(t Table, a Addr) {
	c.pending = append(c.pending, Ref{Table: t, Addr: a})
}

// Flush executes the staged round of parallel probes and returns the
// contents in staging order. The returned slice is owned by the context
// and is overwritten by the next Flush; callers must consume it (or copy
// the words out) before starting another round. An empty round is
// rejected: the model has no zero-probe rounds.
func (c *QueryCtx) Flush() ([]Word, error) {
	if err := c.openRound(); err != nil {
		return nil, err
	}
	for i := range c.pending {
		r := &c.pending[i]
		c.words[i] = r.Table.Lookup(r.Addr)
	}
	return c.closeRound(), nil
}

// Words returns the contents of the last flushed round, in staging order
// (what Flush returned; the way to read a round resolved by FlushEach).
func (c *QueryCtx) Words() []Word { return c.words }

// openRound admits the staged round — it must be non-empty and inside the
// round budget — and sizes the result buffer for it.
func (c *QueryCtx) openRound() error {
	if len(c.pending) == 0 {
		return errors.New("cellprobe: empty probe round")
	}
	if c.k > 0 && c.stats.Rounds >= c.k {
		c.pending = c.pending[:0]
		return fmt.Errorf("%w: budget k=%d", ErrRoundsExhausted, c.k)
	}
	if cap(c.words) < len(c.pending) {
		c.words = make([]Word, len(c.pending))
	}
	c.words = c.words[:len(c.pending)]
	return nil
}

// closeRound charges the round whose contents now sit in c.words to the
// context — the one statement of the model's accounting, whoever resolved
// the cells — and returns the contents.
func (c *QueryCtx) closeRound() []Word {
	refs := c.pending
	round := c.stats.Rounds
	c.stats.Rounds++
	c.stats.Probes += len(refs)
	c.stats.ProbesPerRound = append(c.stats.ProbesPerRound, len(refs))
	for i := range refs {
		r := &refs[i]
		wordBits, addrBits := probeBits(r.Table)
		c.stats.BitsRead += int64(wordBits)
		c.stats.AddrBitsSent += int64(addrBits)
		if c.record {
			c.transcript = append(c.transcript, TranscriptEntry{
				Round:   round,
				Table:   r.Table,
				Addr:    r.Addr,
				Content: c.words[i],
			})
		}
	}
	c.pending = c.pending[:0]
	return c.words
}

// Round stages refs and flushes them as one round: the convenience form
// for callers that already hold a ref slice.
func (c *QueryCtx) Round(refs []Ref) ([]Word, error) {
	c.pending = append(c.pending, refs...)
	return c.Flush()
}

// probeBits returns what one probe of t moves in the communication view:
// the word read and the ⌈log₂ cells⌉ address bits sent. An Oracle holds
// both as integers computed at construction.
func probeBits(t Table) (wordBits, addrBits int) {
	if o, ok := t.(*Oracle); ok {
		return o.wordBits, o.addrBits
	}
	return t.WordBits(), ceilLog(t.NominalLogCells())
}

func ceilLog(logCells float64) int {
	c := int(logCells)
	if float64(c) < logCells {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Stats returns the accumulated accounting. The ProbesPerRound slice
// aliases context-owned memory; callers that outlive the context (or
// release it to a pool) must Clone it first.
func (c *QueryCtx) Stats() Stats { return c.stats }

// Transcript returns the recorded probe sequence (nil unless recording).
// The slice is reset by the next Reset.
func (c *QueryCtx) Transcript() []TranscriptEntry { return c.transcript }
