package server

import (
	"encoding/base64"
	"fmt"

	"repro/anns"
	"repro/internal/bitvec"
)

// The wire format is JSON over HTTP. Points travel as standard base64 of
// their packed little-endian byte image: bit i of the point is bit i%8 of
// byte i/8, exactly the layout of anns.NewPointFromBytes and
// bitvec.Vector.Key. Every answer carries the same stats schema the CLI
// tools print: index, distance, rounds, probes, max_parallel.

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Point is the base64-encoded packed query point.
	Point string `json:"point"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// NearRequest is the body of POST /v1/near (the λ-near-neighbor decision).
type NearRequest struct {
	Point     string  `json:"point"`
	Lambda    float64 `json:"lambda"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Points    []string `json:"points"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
}

// QueryResponse is one query's answer in the shared stats schema. A
// failed query carries its accounting plus a non-empty Error and
// Index = -1 (for /v1/near, Index = -1 with empty Error is the NO answer).
type QueryResponse struct {
	Index       int    `json:"index"`
	Distance    int    `json:"distance"`
	Rounds      int    `json:"rounds"`
	Probes      int    `json:"probes"`
	MaxParallel int    `json:"max_parallel"`
	Error       string `json:"error,omitempty"`
}

// BatchResponse is the body answering POST /v1/batch, results in input
// order.
type BatchResponse struct {
	Results []QueryResponse `json:"results"`
}

// InsertRequest is the body of POST /v1/insert (mutable tier only).
type InsertRequest struct {
	// Point is the base64-encoded packed point to insert.
	Point string `json:"point"`
}

// InsertResponse acknowledges an insert with the point's assigned
// stable ID (the handle /v1/delete takes, and the value Result.Index
// reports when this point answers a query). On a WAL-backed server the
// insert is durable when this response is written. Offset is the
// replication offset after this insert — the sequence number the op's
// frame carries on the wire (present only on replicating tiers).
type InsertResponse struct {
	ID     uint64 `json:"id"`
	Offset uint64 `json:"offset,omitempty"`
}

// DeleteRequest is the body of POST /v1/delete. ID is a pointer so a
// missing field is distinguishable from id 0.
type DeleteRequest struct {
	ID *uint64 `json:"id"`
}

// DeleteResponse reports whether the ID named a live point. Offset is
// the replication offset after the delete (unchanged when Deleted is
// false — a dead target gains no WAL record and no frame).
type DeleteResponse struct {
	Deleted bool   `json:"deleted"`
	Offset  uint64 `json:"offset,omitempty"`
}

// ReplicateRequest is the body of POST /v1/replicate: Frames is standard
// base64 of concatenated CRC-framed WAL records (byte-identical to the
// on-disk WAL format, §7), the first of which carries sequence number
// From+1 — i.e. the sender believes the receiver's applied offset is
// From.
type ReplicateRequest struct {
	From   uint64 `json:"from"`
	Frames string `json:"frames"`
}

// ReplicateResponse reports the replica's applied offset after the call.
// On 409 (replication gap) Offset tells the relay where to resume the
// catch-up read; on 200 it equals From + the number of frames sent.
type ReplicateResponse struct {
	Offset uint64 `json:"offset"`
	Error  string `json:"error,omitempty"`
}

// FramesRequest is the body of POST /v1/frames: the catch-up read for
// the WAL records after applied offset From, up to MaxBytes of whole
// frames (0 for no bound).
type FramesRequest struct {
	From     uint64 `json:"from"`
	MaxBytes int    `json:"max_bytes,omitempty"`
}

// FramesResponse carries Count frames as base64 of their concatenated
// wire bytes, plus the primary's applied offset at read time (so the
// caller knows whether another round is needed).
type FramesResponse struct {
	Frames string `json:"frames,omitempty"`
	Count  int    `json:"count"`
	Offset uint64 `json:"offset"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// MutableStats is /statsz's delta-tier block (present only when the
// served index is mutable), mirroring anns.MutableStats.
type MutableStats struct {
	LiveN            int    `json:"live_n"`
	Memtable         int    `json:"memtable"`
	SealedSegments   int    `json:"sealed_segments"`
	Compactions      int64  `json:"compactions"`
	Tombstones       int    `json:"tombstones"`
	NextID           uint64 `json:"next_id"`
	WALReplayed      int    `json:"wal_replayed"`
	WALBytes         int64  `json:"wal_bytes"`
	LastCompactError string `json:"last_compact_error,omitempty"`
	// Generation is the tier's index generation: it advances on every
	// mutation that can change a query's folded reply, and is the result
	// cache's invalidation epoch.
	Generation uint64 `json:"generation"`
	// ReplicationOffset is the count of mutations applied since the base —
	// the sequence number of the last applied WAL frame (§11). Two
	// replicas at the same offset hold byte-identical state.
	ReplicationOffset uint64 `json:"replication_offset"`
}

// Health is the body of GET /healthz. Seed is the served index's build
// seed (0 when unknown): shards of one logical index carry distinct
// derived seeds, so a router can verify a replica serves the shard its
// position claims, not just an index of the right shape.
// NextID and ReplicationOffset are present only on mutable servers: a
// router uses them to seed global ID assignment and to rank replicas by
// replication progress (promotion picks the max offset). They are
// pointers so an immutable server is distinguishable from a mutable one
// at offset 0.
type Health struct {
	Status            string  `json:"status"`
	N                 int     `json:"n"`
	Shards            int     `json:"shards"`
	Dim               int     `json:"dim"`
	Seed              uint64  `json:"seed,omitempty"`
	UptimeMS          int64   `json:"uptime_ms"`
	NextID            *uint64 `json:"next_id,omitempty"`
	ReplicationOffset *uint64 `json:"replication_offset,omitempty"`
}

// ReadStats is the read-side block both tiers' /statsz bodies open with:
// the front end's ReadCounters at one instant plus the two derived rates
// (qps over served point and near queries; error_rate, the share of them
// whose reply carried an error — the scheme's failure probability).
type ReadStats struct {
	UptimeMS         int64   `json:"uptime_ms"`
	Queries          int64   `json:"queries"`
	Batches          int64   `json:"batches"`
	Near             int64   `json:"near"`
	Errors           int64   `json:"errors"`
	Rejected         int64   `json:"rejected"`
	DeadlineExceeded int64   `json:"deadline_exceeded"`
	Probes           int64   `json:"probes"`
	Rounds           int64   `json:"rounds"`
	MaxRounds        int64   `json:"max_rounds"`
	MaxParallel      int64   `json:"max_parallel"`
	QPS              float64 `json:"qps"`
	ErrorRate        float64 `json:"error_rate"`
}

// StatsSnapshot is the body of GET /statsz: monotonic totals since start
// plus derived rates.
type StatsSnapshot struct {
	ReadStats
	QueueLen int `json:"queue_len"`
	Workers  int `json:"workers"`
	// ScanKernel names the body the table scans behind /v1/batch run on
	// this machine: "avx512" or "portable" (bitvec.ScanKernel). Chosen by
	// the CPU alone; answers are the same either way, batch latency is not.
	ScanKernel string `json:"scan_kernel"`
	// Index provenance (the build→snapshot→serve lifecycle): how the
	// served index came to be and how long bringing it up took.
	IndexSource     string `json:"index_source"`
	SnapshotVersion uint32 `json:"snapshot_version,omitempty"`
	IndexLoadMS     int64  `json:"index_load_ms"`
	MappedBytes     int64  `json:"mapped_bytes,omitempty"`
	// Mutation counters (zero on immutable servers) and, when the served
	// index is a mutable tier, its internal state.
	Inserts        int64 `json:"inserts"`
	Deletes        int64 `json:"deletes"`
	MutationErrors int64 `json:"mutation_errors,omitempty"`
	// Replication counters: frames applied via /v1/replicate and
	// replication-surface errors (gaps, diverged streams, bad blobs).
	ReplicatedFrames  int64         `json:"replicated_frames,omitempty"`
	ReplicationErrors int64         `json:"replication_errors,omitempty"`
	Mutable           *MutableStats `json:"mutable,omitempty"`
	// Cache is the result-cache block (present only when Config.CacheEntries
	// enabled one).
	Cache *CacheStats `json:"cache,omitempty"`
}

// EncodePoint serializes a point into the wire encoding.
func EncodePoint(p anns.Point) string {
	return base64.StdEncoding.EncodeToString([]byte(bitvec.Vector(p).Key()))
}

// DecodePoint parses the wire encoding back into a point of dimension d.
// The encoded image must be exactly Words(d)*8 bytes — a longer payload
// is rejected rather than silently truncated, so a client built for the
// wrong dimension gets a 400 instead of plausible wrong answers.
func DecodePoint(enc string, d int) (anns.Point, error) {
	raw, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return nil, fmt.Errorf("server: point is not valid base64: %w", err)
	}
	if want := bitvec.Words(d) * 8; len(raw) != want {
		return nil, fmt.Errorf("server: point image is %d bytes, want %d for dimension %d",
			len(raw), want, d)
	}
	return anns.NewPointFromBytes(raw, d)
}

// ToResponse converts an API result + error into the wire schema. Both
// tiers answer through it: a shard server with its index's result, the
// router with its merged one.
func ToResponse(res anns.Result, err error) QueryResponse {
	out := QueryResponse{
		Index:       res.Index,
		Distance:    res.Distance,
		Rounds:      res.Rounds,
		Probes:      res.Probes,
		MaxParallel: res.MaxParallel,
	}
	if err != nil {
		out.Error = err.Error()
	}
	return out
}

// Result converts a wire answer back into the anns accounting (the
// router folds shard answers with it).
func (qr QueryResponse) Result() anns.Result {
	return anns.Result{
		Index:       qr.Index,
		Distance:    qr.Distance,
		Rounds:      qr.Rounds,
		Probes:      qr.Probes,
		MaxParallel: qr.MaxParallel,
	}
}
