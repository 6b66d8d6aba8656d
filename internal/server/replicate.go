package server

import (
	"encoding/base64"
	"errors"
	"net/http"

	"repro/anns"
	"repro/internal/segment"
)

// Replication endpoints (DESIGN.md §11). A replica's mutations arrive as
// WAL frames relayed by the router: POST /v1/replicate applies a run of
// frames at explicit sequence numbers, POST /v1/frames serves a
// primary's WAL records for replica catch-up. Both answer 501 when the
// served index does not support the surface, exactly like the mutation
// endpoints, so a misconfigured relay target fails loudly and typed.

// Replicator is the replica-side apply surface; *anns.MutableIndex
// implements it. Frame application is the same deterministic state
// transition a local mutation performs, so equal offsets mean
// byte-identical index state.
type Replicator interface {
	ApplyReplicated(seq uint64, op segment.Op) error
	ReplicationOffset() uint64
}

// WALFramer is the primary-side catch-up feed; *anns.MutableIndex
// implements it when configured with a WAL.
type WALFramer interface {
	WALFrames(from uint64, maxBytes int) ([]byte, int, error)
}

// handleReplicate serves POST /v1/replicate: a blob of concatenated WAL
// frames whose first frame carries sequence number from+1. Application
// is transactional per frame, idempotent per offset (a duplicate run is
// a no-op), and strict about order: a gap answers 409 with the replica's
// applied offset so the relay can fetch what is missing from the
// primary's /v1/frames and retry; a diverged stream (wrong insert ID,
// dead delete target) answers 500 and applies nothing further.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	rep, ok := s.idx.(Replicator)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, ErrorResponse{Error: "served index does not accept replicated frames (start annsd with -mutable)"})
		return
	}
	var req ReplicateRequest
	if _, ok := ReadBody(w, r, &req); !ok {
		return
	}
	raw, err := base64.StdEncoding.DecodeString(req.Frames)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "frames are not valid base64: " + err.Error()})
		return
	}
	ops, err := segment.DecodeFrames(raw, s.cfg.Dimension)
	if err != nil {
		s.m.replErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	for i, op := range ops {
		seq := req.From + uint64(i) + 1
		if err := rep.ApplyReplicated(seq, op); err != nil {
			s.m.replErrors.Add(1)
			code := http.StatusInternalServerError
			if errors.Is(err, anns.ErrReplicationGap) {
				code = http.StatusConflict
			}
			writeJSON(w, code, ReplicateResponse{Offset: rep.ReplicationOffset(), Error: err.Error()})
			return
		}
		s.m.replFrames.Add(1)
	}
	writeJSON(w, http.StatusOK, ReplicateResponse{Offset: rep.ReplicationOffset()})
}

// handleFrames serves POST /v1/frames: whole WAL frames for the records
// after applied offset `from`, bounded by max_bytes (at least one frame
// when any exist). The router uses it to catch a lagging or late-joining
// replica up to the primary before resuming relay.
func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	fr, ok := s.idx.(WALFramer)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, ErrorResponse{Error: "served index has no WAL to stream (start annsd with -mutable -wal)"})
		return
	}
	var req FramesRequest
	if _, ok := ReadBody(w, r, &req); !ok {
		return
	}
	var offset uint64
	if rep, ok := s.idx.(Replicator); ok {
		offset = rep.ReplicationOffset()
	}
	if req.From == offset {
		// Nothing after `from`: an empty answer, not an error — the relay
		// polls this in steady state when a replica is already caught up.
		writeJSON(w, http.StatusOK, FramesResponse{Offset: offset})
		return
	}
	blob, n, err := fr.WALFrames(req.From, req.MaxBytes)
	if err != nil {
		s.m.replErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, FramesResponse{
		Frames: base64.StdEncoding.EncodeToString(blob),
		Count:  n,
		Offset: offset,
	})
}
