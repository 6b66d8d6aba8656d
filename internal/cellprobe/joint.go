package cellprobe

import (
	"slices"
	"sync"
)

// The joint flush. Limited adaptivity means a round's addresses are all
// known before any cell is read — for one query by construction, and so
// for any set of queries that sit at a round boundary together. FlushEach
// resolves the staged rounds of several contexts as one: the probes are
// grouped by table and every table answers its group in a single
// LookupEach, which lets a table evaluate all of the group's cold cells
// with one pass over its data. Each context is charged exactly what its
// own Flush would have charged it.

// jointRef is one staged probe of a joint round: slot of context ctx,
// addressed to oracle table o.
type jointRef struct {
	o         *Oracle
	ctx, slot int
}

// jointScratch is FlushEach's working memory, pooled so a joint round
// allocates nothing.
type jointScratch struct {
	refs  []jointRef // probes not yet resolved
	group []jointRef // the probes of the table being resolved
	addrs []Addr
	words []Word
}

var jointPool = sync.Pool{New: func() any { return new(jointScratch) }}

// FlushEach executes the staged round of every context as one joint round
// and leaves each context's contents in its Words. errs[i] is what
// ctxs[i].Flush would have returned (an empty round, an exhausted budget);
// a context that fails reads nothing and does not hold the others back.
// The contexts must be distinct; len(errs) must be len(ctxs).
func FlushEach(ctxs []*QueryCtx, errs []error) {
	sc := jointPool.Get().(*jointScratch)
	refs := sc.refs[:0]
	for ci, c := range ctxs {
		if errs[ci] = c.openRound(); errs[ci] != nil {
			continue
		}
		for slot := range c.pending {
			r := &c.pending[slot]
			if o, ok := r.Table.(*Oracle); ok {
				refs = append(refs, jointRef{o: o, ctx: ci, slot: slot})
			} else {
				c.words[slot] = r.Table.Lookup(r.Addr)
			}
		}
	}
	// One table per pass, in first-staged order: its probes move to group,
	// the rest close ranks.
	for len(refs) > 0 {
		o := refs[0].o
		group, addrs, rest := sc.group[:0], sc.addrs[:0], refs[:0]
		for _, r := range refs {
			if r.o == o {
				group = append(group, r)
				addrs = append(addrs, ctxs[r.ctx].pending[r.slot].Addr)
			} else {
				rest = append(rest, r)
			}
		}
		words := slices.Grow(sc.words[:0], len(group))[:len(group)]
		o.LookupEach(addrs, words)
		for j, r := range group {
			ctxs[r.ctx].words[r.slot] = words[j]
		}
		sc.group, sc.addrs, sc.words, refs = group, addrs, words, rest
	}
	sc.refs = refs[:0]
	jointPool.Put(sc)
	for ci, c := range ctxs {
		if errs[ci] == nil {
			c.closeRound()
		}
	}
}
