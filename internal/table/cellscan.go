package table

import (
	"slices"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
)

// cellScan gathers the cells of one EvalCells call that need a scan of the
// same block and resolves them with a single multi-key pass
// (bitvec.Block.FirstWithinEach): the address payloads back to back, the
// position of each in the call, and the rows the scan finds. Pooled, so a
// group of cold cells allocates nothing.
type cellScan struct {
	keys []uint64
	at   []int
	rows []int
}

var cellScanPool = sync.Pool{New: func() any { return new(cellScan) }}

// add queues the cell at position i of the call, whose address is addr.
func (s *cellScan) add(i int, addr *cellprobe.Addr) {
	s.keys = addr.AppendPayload(s.keys)
	s.at = append(s.at, i)
}

// resolve scans blk once for every queued cell and stores each one's
// content — the first row within thr of its address, in database order,
// else EMPTY — at its position in out, then returns s to the pool.
func (s *cellScan) resolve(blk *bitvec.Block, thr int, out []cellprobe.Word) {
	rows := slices.Grow(s.rows[:0], len(s.at))[:len(s.at)]
	blk.FirstWithinEach(s.keys, thr, rows)
	for j, i := range s.at {
		out[i] = cellprobe.EmptyWord
		if rows[j] >= 0 {
			out[i] = cellprobe.PointWord(rows[j])
		}
	}
	s.keys, s.at, s.rows = s.keys[:0], s.at[:0], rows
	cellScanPool.Put(s)
}
