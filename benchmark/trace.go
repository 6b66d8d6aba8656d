package main

import (
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Tracing lives entirely in the benchmark's own files: a timing
// middleware around each booted Handler() records the handler spans, the
// generator records the client span, and the inner stages are the ones
// the daemons already return in X-Anns-Spans when asked with
// X-Anns-Trace. One trace ID joins them into a tree per request:
//
//	client.request ⊃ router.handler ⊃ { router.cache_lookup,
//	    router.rpc[s] ⊃ server.handler ⊃ { server.cache_lookup,
//	        server.admission_wait, server.execute },
//	    router.merge }
const (
	spanClient = "client.request"
	spanRouter = "router.handler"
	spanServer = "server.handler"
)

// rawSpan is one handler invocation as the middleware saw it.
type rawSpan struct {
	Kind    string // spanRouter | spanServer
	Node    string // base URL of the node that served it
	Path    string
	TraceID string
	Start   time.Time
	Dur     time.Duration
}

// spanSink keeps the middleware's spans in memory until the run ends.
// A nil sink disables the middleware altogether.
type spanSink struct {
	off   atomic.Bool // set to pass requests through untimed
	mu    sync.Mutex
	spans []rawSpan
}

// wrap times h. Health probes are not recorded: they belong to no
// request.
func (s *spanSink) wrap(kind, node string, h http.Handler) http.Handler {
	if s == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || s.off.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		sp := rawSpan{Kind: kind, Node: node, Path: r.URL.Path, TraceID: r.Header.Get(obs.TraceHeader), Start: t0, Dur: time.Since(t0)}
		s.mu.Lock()
		s.spans = append(s.spans, sp)
		s.mu.Unlock()
	})
}

// drain returns and forgets everything recorded so far.
func (s *spanSink) drain() []rawSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.spans
	s.spans = nil
	return out
}

// span is one node of a request's tree. Times are microseconds relative
// to the client span's start; Parent indexes the request's Spans (-1 for
// the root).
type span struct {
	Name    string  `json:"name"`
	Node    string  `json:"node,omitempty"`
	Path    string  `json:"path,omitempty"`
	Outcome string  `json:"outcome,omitempty"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`
}

func (s span) end() float64 { return s.StartUS + s.DurUS }

// tracedRequest is one request's joined timeline, as written to the
// trace file.
type tracedRequest struct {
	TraceID string `json:"trace_id"`
	Op      string `json:"op"`
	Spans   []span `json:"spans"`
	// UnattributedUS is the part of the client span no span on the
	// request's critical path accounts for (see attribute).
	UnattributedUS float64 `json:"unattributed_us"`
}

// us converts to microseconds; durations are whole nanoseconds, so three
// decimals lose nothing.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func round3(x float64) float64 { return math.Round(x*1e3) / 1e3 }

// buildRequest joins one request's pieces into a tree. start/dur are the
// client span; raws are the middleware spans that ended inside it (the
// traced run has one client, so containment is unambiguous; sub-requests
// the router makes without a trace header — replication relays — join
// this way too); inner are the daemon-reported stages from X-Anns-Spans.
func buildRequest(traceID, opName string, start time.Time, dur time.Duration, raws []rawSpan, inner []obs.Span) tracedRequest {
	req := tracedRequest{TraceID: traceID, Op: opName}
	add := func(s span) int {
		req.Spans = append(req.Spans, s)
		return len(req.Spans) - 1
	}
	root := add(span{Name: spanClient, Parent: -1, DurUS: us(dur)})

	// The entry handler: the router's span when there is one, else the
	// lone server's.
	entry := -1
	for _, r := range raws {
		if r.Kind == spanRouter {
			entry = add(span{Name: spanRouter, Node: r.Node, Path: r.Path, Parent: root, StartUS: us(r.Start.Sub(start)), DurUS: us(r.Dur)})
			break
		}
	}
	routed := entry >= 0
	rpcByNode := map[string]int{}
	if routed {
		base := req.Spans[entry].StartUS // the router's trace root ≈ its handler's start
		for _, in := range inner {
			if in.Replica != "" && in.Stage != "rpc" {
				continue // a shard's own stage; placed under its handler below
			}
			name := "router." + in.Stage
			i := add(span{Name: name, Node: in.Replica, Outcome: in.Outcome, Parent: entry, StartUS: base + float64(in.StartUS), DurUS: float64(in.DurUS)})
			if in.Stage == "rpc" && in.Outcome == "ok" {
				rpcByNode[in.Replica] = i
			}
		}
	}
	serverByNode := map[string]int{}
	for _, r := range raws {
		if r.Kind != spanServer {
			continue
		}
		parent := root
		if routed {
			parent = entry
			if i, ok := rpcByNode[r.Node]; ok && r.TraceID != "" {
				parent = i
			}
		}
		i := add(span{Name: spanServer, Node: r.Node, Path: r.Path, Parent: parent, StartUS: us(r.Start.Sub(start)), DurUS: us(r.Dur)})
		if r.TraceID != "" {
			serverByNode[r.Node] = i
		}
		if !routed && entry < 0 {
			entry = i
		}
	}
	// Shard stages. The router rebased them onto its own timeline by
	// adding the rpc's launch offset; subtracting that again recovers the
	// offset from the shard's request arrival, which the middleware
	// measured directly.
	for _, in := range inner {
		var h int
		var off float64
		switch {
		case !routed && entry >= 0:
			h, off = entry, float64(in.StartUS)
		case routed && in.Replica != "" && in.Stage != "rpc":
			sh, ok := serverByNode[in.Replica]
			rpc, ok2 := rpcByNode[in.Replica]
			if !ok || !ok2 {
				continue
			}
			h, off = sh, float64(in.StartUS)-(req.Spans[rpc].StartUS-req.Spans[entry].StartUS)
		default:
			continue
		}
		add(span{Name: "server." + in.Stage, Node: in.Replica, Outcome: in.Outcome, Parent: h, StartUS: round3(req.Spans[h].StartUS + off), DurUS: float64(in.DurUS)})
	}
	computeSelf(req.Spans)
	req.UnattributedUS = round3(req.Spans[root].DurUS - attribute(req.Spans, root))
	return req
}

type interval struct{ lo, hi float64 }

// unionLen is the total length covered by ivs within [lo, hi].
func unionLen(ivs []interval, lo, hi float64) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	total, end := 0.0, lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

func childrenOf(spans []span, parent int) []int {
	var out []int
	for i, s := range spans {
		if s.Parent == parent {
			out = append(out, i)
		}
	}
	return out
}

// computeSelf sets every span's self time: its duration minus the part
// of that interval its children cover. Overlapping children (parallel
// shard RPCs) cover their union once; a child reaching outside its
// parent (clock truncation, a rebased estimate) is clipped to it.
func computeSelf(spans []span) {
	for i := range spans {
		var ivs []interval
		for _, c := range childrenOf(spans, i) {
			ivs = append(ivs, interval{spans[c].StartUS, spans[c].end()})
		}
		spans[i].SelfUS = round3(spans[i].DurUS - unionLen(ivs, spans[i].StartUS, spans[i].end()))
	}
}

// attribute returns how much of span i's duration the per-layer rows
// explain along the request's critical path: the span's own self time,
// plus, for each group of children that overlap in time, the attributed
// time of the group's longest member (a result waits for its slowest
// parallel part; the faster ones are off the critical path). What is
// left — the slack between overlapping siblings — is the request's
// unattributed time.
func attribute(spans []span, i int) float64 {
	total := spans[i].SelfUS
	kids := childrenOf(spans, i)
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartUS < spans[kids[b]].StartUS })
	for k := 0; k < len(kids); {
		longest, end := kids[k], spans[kids[k]].end()
		j := k + 1
		for ; j < len(kids) && spans[kids[j]].StartUS < end; j++ {
			if spans[kids[j]].DurUS > spans[longest].DurUS {
				longest = kids[j]
			}
			if e := spans[kids[j]].end(); e > end {
				end = e
			}
		}
		total += attribute(spans, longest)
		k = j
	}
	return total
}

// layerSums folds traced requests into per-layer sample lists keyed by
// metric name; the caller reports each list's mean.
func layerSums(reqs []tracedRequest) map[string][]float64 {
	acc := map[string][]float64{}
	put := func(name string, v float64) { acc[name] = append(acc[name], v) }
	for _, req := range reqs {
		write := req.Op == opInsert.String() || req.Op == opDelete.String()
		var rpcs []float64
		for i, s := range req.Spans {
			switch s.Name {
			case spanClient:
				put("client.wire_us", s.SelfUS)
			case spanRouter:
				if write {
					put("router.write_self_us", s.SelfUS)
				} else {
					put("router.self_us", s.SelfUS)
				}
			case "router.rpc":
				if s.Outcome != "ok" {
					continue
				}
				put("router.rpc_us", s.DurUS)
				rpcs = append(rpcs, s.DurUS)
				for _, c := range childrenOf(req.Spans, i) {
					if req.Spans[c].Name == spanServer {
						put("router.rpc_wire_us", s.DurUS-req.Spans[c].DurUS)
					}
				}
			case "router.merge":
				put("router.merge_us", s.DurUS)
			case "router.cache_lookup":
				put("router.cache_lookup_us", s.DurUS)
			case spanServer:
				switch s.Path {
				case "/v1/insert":
					put("server.insert_us", s.DurUS)
				case "/v1/replicate":
					put("server.replicate_us", s.DurUS)
				case "/v1/query", "/v1/near", "/v1/batch":
					put("server.self_us", s.SelfUS)
				}
			case "server.admission_wait":
				put("server.admission_wait_us", s.DurUS)
			case "server.execute":
				put("server.execute_us", s.DurUS)
			case "server.cache_lookup":
				put("server.cache_lookup_us", s.DurUS)
			}
		}
		if len(rpcs) >= 2 {
			lo, hi := rpcs[0], rpcs[0]
			for _, v := range rpcs[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			put("router.rpc_skew_us", hi-lo)
		}
	}
	return acc
}
