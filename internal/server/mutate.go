package server

import (
	"net/http"

	"repro/anns"
)

// Mutator is the optional mutation surface: *anns.MutableIndex
// implements it, the static index kinds do not. The server registers
// the mutation endpoints unconditionally and answers 501 when the
// served index is immutable, so clients get a typed error instead of a
// bare 404.
type Mutator interface {
	Insert(p anns.Point) (uint64, error)
	Delete(id uint64) (bool, error)
}

// mutableStatser exposes the delta tier's counters for /statsz.
type mutableStatser interface {
	MutableStats() anns.MutableStats
}

// handleInsert serves POST /v1/insert. Mutations do not pass the query
// admission queue: they are serialized by the index's own write lock
// (and bounded by WAL fsync latency), while the queue's job is to
// protect the query worker pool. A WAL-backed insert is durable when
// the 200 is written.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	mut, ok := s.idx.(Mutator)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, ErrorResponse{Error: "served index is immutable (start annsd with -mutable)"})
		return
	}
	var req InsertRequest
	if _, ok := ReadBody(w, r, &req); !ok {
		return
	}
	x, err := DecodePoint(req.Point, s.cfg.Dimension)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	id, err := mut.Insert(x)
	if err != nil {
		s.m.mutErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	s.m.inserts.Add(1)
	resp := InsertResponse{ID: id}
	// The post-insert replication offset is the sequence number this op's
	// frame carries when relayed (writes through the router are
	// serialized, so offset-after == this op's seq).
	if rep, ok := s.idx.(Replicator); ok {
		resp.Offset = rep.ReplicationOffset()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDelete serves POST /v1/delete.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	mut, ok := s.idx.(Mutator)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, ErrorResponse{Error: "served index is immutable (start annsd with -mutable)"})
		return
	}
	var req DeleteRequest
	if _, ok := ReadBody(w, r, &req); !ok {
		return
	}
	if req.ID == nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing id"})
		return
	}
	deleted, err := mut.Delete(*req.ID)
	if err != nil {
		s.m.mutErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	s.m.deletes.Add(1)
	resp := DeleteResponse{Deleted: deleted}
	if rep, ok := s.idx.(Replicator); ok {
		resp.Offset = rep.ReplicationOffset()
	}
	writeJSON(w, http.StatusOK, resp)
}
