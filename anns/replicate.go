package anns

import (
	"errors"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/segment"
)

// Replica-side replication (DESIGN.md §11). A replica is a MutableIndex
// whose mutations arrive as WAL frames instead of client calls: the
// primary (or the router relaying for it) ships each framed op tagged
// with its sequence number — the primary's replication offset after
// applying it — and ApplyReplicated applies it through the exact code
// path a local mutation takes (WAL append included, so the replica is
// independently durable and restarts at its applied offset). Because
// frame application is the same deterministic state transition on every
// replica, equal offsets mean byte-identical index state.

// ErrReplicationGap tags a frame whose sequence number skips ahead of
// the replica's applied offset: frames in between are missing and must
// be fetched from the primary's WAL before this one can apply.
var ErrReplicationGap = errors.New("anns: replication gap")

// ReplicationOffset returns the number of mutations applied since the
// base: 0 on a freshly built tier, restored by WAL replay on boot, and
// bumped by every applied insert or live delete. Frame sequence numbers
// are 1-based — frame seq applies exactly when the offset is seq-1.
func (mx *MutableIndex) ReplicationOffset() uint64 {
	mx.mu.RLock()
	defer mx.mu.RUnlock()
	return mx.replSeq
}

// ApplyReplicated applies one replicated frame at sequence number seq.
// Semantics:
//
//	seq <= offset   duplicate delivery — already applied, a no-op (nil):
//	                relays may retry freely
//	seq >  offset+1 gap — ErrReplicationGap, nothing applied; the caller
//	                fetches the missing frames and retries in order
//	seq == offset+1 applied, through the same WAL-append + mutation path
//	                a local Insert/Delete takes
//
// ID checks are strict, exactly like boot replay: an insert must carry
// the replica's next ID and a delete must address a live point —
// anything else means the streams diverged, which is an error, never a
// silent repair.
func (mx *MutableIndex) ApplyReplicated(seq uint64, op segment.Op) error {
	mx.mu.Lock()
	if mx.closed {
		mx.mu.Unlock()
		return errors.New("anns: mutable index is closed")
	}
	if seq <= mx.replSeq {
		mx.mu.Unlock()
		return nil // duplicate: idempotent by offset
	}
	if seq != mx.replSeq+1 {
		off := mx.replSeq
		mx.mu.Unlock()
		return fmt.Errorf("%w: frame seq %d arrived at applied offset %d", ErrReplicationGap, seq, off)
	}
	switch op.Kind {
	case segment.OpInsert:
		if len(op.Point) != bitvec.Words(mx.opts.Dimension) {
			mx.mu.Unlock()
			return fmt.Errorf("anns: replicated insert point has %d words, want %d for dimension %d",
				len(op.Point), bitvec.Words(mx.opts.Dimension), mx.opts.Dimension)
		}
		if op.ID != mx.nextID {
			mx.mu.Unlock()
			return fmt.Errorf("anns: replicated insert id %d does not continue this replica (want %d): streams diverged", op.ID, mx.nextID)
		}
		if mx.wal != nil {
			if err := mx.wal.Append(op); err != nil {
				mx.mu.Unlock()
				return fmt.Errorf("anns: WAL append: %w", err)
			}
		}
		compact := mx.applyInsertLocked(op.ID, op.Point)
		mx.mu.Unlock()
		mx.follow(compact)
		return nil
	case segment.OpDelete:
		if !mx.present.Has(op.ID) {
			mx.mu.Unlock()
			return fmt.Errorf("anns: replicated delete of id %d which is not live on this replica: streams diverged", op.ID)
		}
		if mx.wal != nil {
			if err := mx.wal.Append(op); err != nil {
				mx.mu.Unlock()
				return fmt.Errorf("anns: WAL append: %w", err)
			}
		}
		mx.applyDeleteLocked(op.ID)
		mx.mu.Unlock()
		return nil
	default:
		mx.mu.Unlock()
		return fmt.Errorf("anns: replicated frame has unknown op kind %d", op.Kind)
	}
}

// WALFrames reads raw frame bytes for the records after applied offset
// `from`, up to maxBytes of whole frames (<= 0 for no bound), returning
// the blob and the frame count. It is the primary-side catch-up feed: a
// replica at offset o is missing exactly the WAL records after record o,
// because with replication the WAL is never truncated mid-stream (a
// replicated tier must not configure SnapshotPath — a truncation would
// orphan every lagging replica). Requires a configured WAL.
func (mx *MutableIndex) WALFrames(from uint64, maxBytes int) ([]byte, int, error) {
	if mx.cfg.WALPath == "" {
		return nil, 0, errors.New("anns: WALFrames requires a configured WAL")
	}
	if mx.wal != nil {
		// Appends may be buffered by the OS but are visible to readers of
		// the same file; no sync is needed for a same-host read.
		mx.mu.RLock()
		if from > mx.replSeq {
			off := mx.replSeq
			mx.mu.RUnlock()
			return nil, 0, fmt.Errorf("anns: WALFrames from offset %d beyond applied offset %d", from, off)
		}
		mx.mu.RUnlock()
	}
	return segment.ReadWALFrames(mx.cfg.WALPath, mx.opts.Dimension, from, maxBytes)
}
