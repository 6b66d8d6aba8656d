package router

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/bitvec"
	"repro/internal/segment"
	"repro/internal/server"
)

// Replicated writes (DESIGN.md §11). The router routes /v1/insert and
// /v1/delete by shard with the same round-robin formula queries fold
// with: global g lives in shard g%S as that shard's local ID g/S, and
// the next insert's global ID is assigned sequentially under a single
// write mutex (global ID assignment is an order — sequential assignment
// is what keeps a routed cluster byte-identical to one MutableSharded
// process over the same mutation stream).
//
// The primary applies the mutation to its own WAL; the router then
// re-encodes the op as a WAL frame (segment.EncodeFrame produces the
// exact bytes the primary's WAL.Append wrote — pinned by test) and
// relays it to the shard's other replicas via POST /v1/replicate, so the
// primary needs no replica topology: frames stream *through* the router.
// A lagging replica answers 409 with its applied offset and is caught up
// from the primary's /v1/frames before the relay resumes.
//
// A write to the primary is NEVER auto-retried: a timed-out insert may
// have applied, and a blind retry would assign the point twice. The
// client gets a 502 and decides; the next successful write re-seeds the
// global counter from the primaries' own NextID reports, so the order
// stays consistent either way.

// handleInsert serves POST /v1/insert at the router: route to the
// shard's primary, relay the frame, answer with the *global* ID.
func (rt *Router) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req server.InsertRequest
	body, ok := server.ReadBody(w, r, &req)
	if !ok {
		return
	}
	x, err := server.DecodePoint(req.Point, rt.cfg.Dimension)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: err.Error()})
		return
	}
	if f := rt.admit(); f != nil {
		rt.fe.WriteFailure(w, f)
		return
	}
	defer rt.release()
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.DefaultTimeout)
	defer cancel()

	rt.writeMu.Lock()
	defer rt.writeMu.Unlock()
	if err := rt.initNextGlobalLocked(ctx); err != nil {
		rt.writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	g := rt.nextGlobal
	S := uint64(len(rt.shards))
	sh := rt.shards[g%S]
	local := g / S

	pr := rt.primaryLocked(sh)
	if pr == nil {
		rt.writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("router: shard %d has no replica eligible for primary", g%S))
		return
	}
	raw, err := rt.post(ctx, pr.url+"/v1/insert", body)
	if err != nil {
		rt.replicaFailure(sh.pos, pr, rt.cfg.EvictAfter, err.Error())
		rt.writeError(w, http.StatusBadGateway,
			fmt.Sprintf("router: insert on shard %d primary %s failed and is not retried (it may have applied): %v", g%S, pr.url, err))
		return
	}
	var ins server.InsertResponse
	if err := json.Unmarshal(raw, &ins); err != nil {
		rt.writeError(w, http.StatusBadGateway, fmt.Sprintf("router: primary answered 200 with an undecodable body: %v", err))
		return
	}
	if ins.Offset == 0 {
		rt.writeError(w, http.StatusBadGateway,
			fmt.Sprintf("router: shard %d primary %s does not report a replication offset (serving without a replicating tier?)", g%S, pr.url))
		return
	}
	if ins.ID != local {
		rt.writeError(w, http.StatusBadGateway,
			fmt.Sprintf("router: shard %d primary assigned local id %d to global %d, want %d — streams diverged", g%S, ins.ID, g, local))
		return
	}
	// The primary applied: the global order advanced and every cached
	// answer predates this write, whatever the relays do next.
	rt.nextGlobal = g + 1
	rt.wgen.Add(1)
	pr.noteReplication(ins.Offset)

	op := segment.Op{Kind: segment.OpInsert, ID: local, Point: bitvec.Vector(x)}
	acks, relayErr := rt.relayAll(ctx, sh, pr, op, ins.Offset)
	rt.m.writes.Add(1)
	if !rt.quorumMet(sh, acks) {
		rt.writeError(w, http.StatusBadGateway,
			fmt.Sprintf("router: insert applied on shard %d primary but reached %d/%d replicas (quorum %d): %v",
				g%S, acks, len(sh.replicas), len(sh.replicas)/2+1, relayErr))
		return
	}
	writeJSON(w, http.StatusOK, server.InsertResponse{ID: g, Offset: ins.Offset})
}

// handleDelete serves POST /v1/delete at the router. The client's ID is
// global; the primary sees the shard-local translation.
func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req server.DeleteRequest
	if _, ok := server.ReadBody(w, r, &req); !ok {
		return
	}
	if req.ID == nil {
		writeJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: "missing id"})
		return
	}
	if f := rt.admit(); f != nil {
		rt.fe.WriteFailure(w, f)
		return
	}
	defer rt.release()
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.DefaultTimeout)
	defer cancel()

	g := *req.ID
	S := uint64(len(rt.shards))
	sh := rt.shards[g%S]
	local := g / S
	shardBody, err := json.Marshal(server.DeleteRequest{ID: &local})
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, server.ErrorResponse{Error: err.Error()})
		return
	}

	rt.writeMu.Lock()
	defer rt.writeMu.Unlock()
	if err := rt.initNextGlobalLocked(ctx); err != nil {
		rt.writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	pr := rt.primaryLocked(sh)
	if pr == nil {
		rt.writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("router: shard %d has no replica eligible for primary", g%S))
		return
	}
	raw, err := rt.post(ctx, pr.url+"/v1/delete", shardBody)
	if err != nil {
		rt.replicaFailure(sh.pos, pr, rt.cfg.EvictAfter, err.Error())
		rt.writeError(w, http.StatusBadGateway,
			fmt.Sprintf("router: delete on shard %d primary %s failed and is not retried (it may have applied): %v", g%S, pr.url, err))
		return
	}
	var del server.DeleteResponse
	if err := json.Unmarshal(raw, &del); err != nil {
		rt.writeError(w, http.StatusBadGateway, fmt.Sprintf("router: primary answered 200 with an undecodable body: %v", err))
		return
	}
	if !del.Deleted {
		// A dead target changed nothing: no WAL record, no frame, no
		// generation bump — answer straight through.
		writeJSON(w, http.StatusOK, server.DeleteResponse{Deleted: false, Offset: del.Offset})
		return
	}
	if del.Offset == 0 {
		rt.writeError(w, http.StatusBadGateway,
			fmt.Sprintf("router: shard %d primary %s does not report a replication offset (serving without a replicating tier?)", g%S, pr.url))
		return
	}
	rt.wgen.Add(1)
	pr.noteReplication(del.Offset)

	op := segment.Op{Kind: segment.OpDelete, ID: local}
	acks, relayErr := rt.relayAll(ctx, sh, pr, op, del.Offset)
	rt.m.writes.Add(1)
	if !rt.quorumMet(sh, acks) {
		rt.writeError(w, http.StatusBadGateway,
			fmt.Sprintf("router: delete applied on shard %d primary but reached %d/%d replicas (quorum %d): %v",
				g%S, acks, len(sh.replicas), len(sh.replicas)/2+1, relayErr))
		return
	}
	writeJSON(w, http.StatusOK, server.DeleteResponse{Deleted: true, Offset: del.Offset})
}

// writeError counts and writes one write-path failure.
func (rt *Router) writeError(w http.ResponseWriter, code int, msg string) {
	rt.m.writeErrors.Add(1)
	writeJSON(w, code, server.ErrorResponse{Error: msg})
}

// quorumMet applies the configured durability level to an ack count
// (which always includes the primary's own).
func (rt *Router) quorumMet(sh *shard, acks int) bool {
	if rt.cfg.Durability != DurabilityQuorum {
		return true
	}
	return acks >= len(sh.replicas)/2+1
}

// initNextGlobalLocked seeds the global ID counter from the primaries'
// own NextID reports: the next global ID is the smallest global landing
// on any shard's next local slot, min over s of NextID_s·S + s. Caller
// holds writeMu. Requires every shard's primary reachable — a partial
// view could assign an ID some shard has already used.
func (rt *Router) initNextGlobalLocked(ctx context.Context) error {
	if rt.nextInit {
		return nil
	}
	S := uint64(len(rt.shards))
	var min uint64
	for s, sh := range rt.shards {
		pr := rt.primaryLocked(sh)
		if pr == nil {
			return fmt.Errorf("router: shard %d has no replica eligible for primary", s)
		}
		n, err := rt.fetchNextID(ctx, pr)
		if err != nil {
			return fmt.Errorf("router: shard %d primary %s: %w", s, pr.url, err)
		}
		if c := n*S + uint64(s); s == 0 || c < min {
			min = c
		}
	}
	rt.nextGlobal = min
	rt.nextInit = true
	rt.writesStarted.Store(true)
	return nil
}

// fetchNextID reads one replica's /healthz NextID report.
func (rt *Router) fetchNextID(ctx context.Context, rep *replica) (uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h server.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	if h.NextID == nil {
		return 0, errors.New("replica is not mutable (start annsd with -mutable)")
	}
	return *h.NextID, nil
}

// primaryLocked returns sh's current primary, promoting away from an
// evicted one. Caller holds writeMu.
func (rt *Router) primaryLocked(sh *shard) *replica {
	cur := sh.replicas[sh.primary.Load()]
	if cur.healthy() {
		return cur
	}
	return rt.promoteLocked(sh)
}

// promoteLocked promotes the healthy replica with the highest known
// replication offset to primary (it has lost nothing any other candidate
// holds), bumps the placement epoch, and persists the new designation to
// the manifest when one is configured. Returns nil when no healthy
// candidate exists — the shard is write-unavailable, not repaired by
// guesswork. Caller holds writeMu.
func (rt *Router) promoteLocked(sh *shard) *replica {
	cur := int(sh.primary.Load())
	best := -1
	var bestOff uint64
	for i, rep := range sh.replicas {
		if i == cur || !rep.healthy() {
			continue
		}
		if off := rep.offset.Load(); best < 0 || off > bestOff {
			best, bestOff = i, off
		}
	}
	if best < 0 {
		return nil
	}
	sh.primary.Store(int32(best))
	rt.m.promotions.Add(1)
	epoch := rt.epoch.Add(1)
	rt.persistManifestLocked(epoch)
	if rt.cfg.OnReplicaState != nil {
		rt.cfg.OnReplicaState(sh.pos, sh.replicas[best].url, StatePromoted,
			fmt.Sprintf("promoted at offset %d (epoch %d)", bestOff, epoch))
	}
	return sh.replicas[best]
}

// persistManifestLocked rewrites the configured manifest with the
// current epoch and primary designations. Best effort: the in-memory
// topology is authoritative for this router's lifetime; the rewrite
// exists so a *restarted* router resumes from the promoted topology
// instead of the dead pre-failover primary. Caller holds writeMu.
func (rt *Router) persistManifestLocked(epoch uint64) {
	m := rt.cfg.Manifest
	if m == nil || rt.cfg.ManifestPath == "" {
		return
	}
	m.FormatVersion = ManifestVersion
	m.Epoch = epoch
	for s, sh := range rt.shards {
		if s < len(m.Files) {
			m.Files[s].Primary = int(sh.primary.Load())
		}
	}
	_ = WriteManifest(rt.cfg.ManifestPath, m)
}

// relayAll ships the frame for op (applied on the primary at sequence
// number seq) to every other replica of sh, catching lagging replicas up
// from the primary's WAL on a 409 gap. Returns the number of replicas
// holding the frame (counting the primary) and the last relay error.
// Relay failures press on the failing replica's health but never unwind
// the primary's apply — the frame is durable there and any replica that
// missed it catches up from the primary's WAL later.
func (rt *Router) relayAll(ctx context.Context, sh *shard, pr *replica, op segment.Op, seq uint64) (int, error) {
	frame, err := segment.EncodeFrame(op, rt.cfg.Dimension)
	if err != nil {
		// Cannot happen for an op the primary just accepted; surface as a
		// zero-extra-acks relay failure rather than a panic.
		rt.m.replicationErrs.Add(1)
		return 1, err
	}
	acks := 1
	var lastErr error
	for _, rep := range sh.replicas {
		if rep == pr {
			continue
		}
		if err := rt.relayOne(ctx, pr, rep, frame, seq); err != nil {
			lastErr = err
			rt.m.replicationErrs.Add(1)
			rt.replicaFailure(sh.pos, rep, rt.cfg.EvictAfter, "replication: "+err.Error())
			continue
		}
		rt.m.replications.Add(1)
		rt.replicaSuccess(sh.pos, rep, false)
		acks++
	}
	return acks, lastErr
}

// gapError is a replica's 409 answer: it is at offset Offset and cannot
// apply the relayed frame yet.
type gapError struct{ offset uint64 }

func (e *gapError) Error() string {
	return fmt.Sprintf("replica at offset %d reported a replication gap", e.offset)
}

// relayOne delivers one frame at seq to rep. A duplicate delivery is a
// 200 no-op on the replica (idempotent by offset); a 409 gap triggers a
// catch-up stream from the primary's WAL, which includes the frame
// itself, so catching up to seq completes the delivery.
func (rt *Router) relayOne(ctx context.Context, pr, rep *replica, frame []byte, seq uint64) error {
	off, err := rt.pushFrames(ctx, rep, seq-1, frame)
	if err == nil {
		rep.noteReplication(off)
		return nil
	}
	var gap *gapError
	if !errors.As(err, &gap) {
		return err
	}
	from := gap.offset
	for from < seq {
		blob, count, _, err := rt.fetchFrames(ctx, pr, from)
		if err != nil {
			return fmt.Errorf("catch-up read from primary at offset %d: %w", from, err)
		}
		if count == 0 {
			return fmt.Errorf("primary has no frames past offset %d but the relay is at %d — streams diverged", from, seq)
		}
		next, err := rt.pushFrames(ctx, rep, from, blob)
		if err != nil {
			return fmt.Errorf("catch-up push at offset %d: %w", from, err)
		}
		if next <= from {
			return fmt.Errorf("catch-up made no progress at offset %d", from)
		}
		from = next
	}
	rep.noteReplication(from)
	return nil
}

// catchUpCap bounds one catch-up read so a far-behind replica streams
// the backlog in bounded memory.
const catchUpCap = 4 << 20

// pushFrames posts raw frame bytes to rep's /v1/replicate and returns
// the replica's resulting offset; a 409 comes back as *gapError.
func (rt *Router) pushFrames(ctx context.Context, rep *replica, from uint64, frames []byte) (uint64, error) {
	body, err := json.Marshal(server.ReplicateRequest{
		From:   from,
		Frames: base64.StdEncoding.EncodeToString(frames),
	})
	if err != nil {
		return 0, err
	}
	raw, err := rt.post(ctx, rep.url+"/v1/replicate", body)
	if err != nil {
		var he *httpError
		if errors.As(err, &he) && he.status == http.StatusConflict {
			var rr server.ReplicateResponse
			if jerr := json.Unmarshal([]byte(he.body), &rr); jerr == nil {
				return 0, &gapError{offset: rr.Offset}
			}
		}
		return 0, err
	}
	var rr server.ReplicateResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return 0, err
	}
	return rr.Offset, nil
}

// fetchFrames reads a bounded run of WAL frames after offset from out of
// the primary's /v1/frames.
func (rt *Router) fetchFrames(ctx context.Context, pr *replica, from uint64) (blob []byte, count int, primaryOffset uint64, err error) {
	body, err := json.Marshal(server.FramesRequest{From: from, MaxBytes: catchUpCap})
	if err != nil {
		return nil, 0, 0, err
	}
	raw, err := rt.post(ctx, pr.url+"/v1/frames", body)
	if err != nil {
		return nil, 0, 0, err
	}
	var fr server.FramesResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		return nil, 0, 0, err
	}
	blob, err = base64.StdEncoding.DecodeString(fr.Frames)
	if err != nil {
		return nil, 0, 0, err
	}
	return blob, fr.Count, fr.Offset, nil
}
