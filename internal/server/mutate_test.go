package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/anns"
	"repro/internal/hamming"
	"repro/internal/rng"
	"repro/internal/workload"
)

// newMutableTestServer serves a synchronous mutable tier over a small
// planted workload.
func newMutableTestServer(t *testing.T) (*Server, *httptest.Server, *workload.Instance) {
	t.Helper()
	r := rng.New(31)
	inst := workload.PlantedNN(r, testDim, 40, 8, 6)
	pts := make([]anns.Point, len(inst.DB))
	copy(pts, inst.DB)
	base, err := anns.Build(pts, anns.Options{Dimension: testDim, Rounds: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	mx, err := anns.NewMutable(base, anns.MutableConfig{Synchronous: true, MemtableCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(mx, Config{Dimension: testDim})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		mx.Close()
	})
	return srv, hs, inst
}

func TestInsertDeleteEndpoints(t *testing.T) {
	_, hs, inst := newMutableTestServer(t)
	r := rng.New(77)
	x := hamming.Random(r, testDim)
	planted := hamming.AtDistance(r, x, testDim, 2)

	resp, body := post(t, hs.URL+"/v1/insert", InsertRequest{Point: EncodePoint(planted)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, body)
	}
	var ins InsertResponse
	if err := json.Unmarshal(body, &ins); err != nil {
		t.Fatal(err)
	}
	if ins.ID != uint64(len(inst.DB)) {
		t.Fatalf("first insert got id %d, want %d", ins.ID, len(inst.DB))
	}

	// The fresh point must answer a query for its neighborhood.
	resp, body = post(t, hs.URL+"/v1/query", QueryRequest{Point: EncodePoint(x)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Index != int(ins.ID) || qr.Distance != 2 {
		t.Fatalf("inserted point did not win the query: %+v", qr)
	}

	// Delete it; deleting again reports false.
	id := ins.ID
	resp, body = post(t, hs.URL+"/v1/delete", DeleteRequest{ID: &id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	var del DeleteResponse
	if err := json.Unmarshal(body, &del); err != nil || !del.Deleted {
		t.Fatalf("delete: %+v err=%v", del, err)
	}
	if _, body = post(t, hs.URL+"/v1/delete", DeleteRequest{ID: &id}); string(body) == "" {
		t.Fatal("empty re-delete body")
	} else {
		json.Unmarshal(body, &del)
		if del.Deleted {
			t.Fatal("re-delete reported true")
		}
	}
	resp, body = post(t, hs.URL+"/v1/query", QueryRequest{Point: EncodePoint(x)})
	json.Unmarshal(body, &qr)
	if qr.Index == int(ins.ID) {
		t.Fatalf("tombstoned point still answers: %+v", qr)
	}

	// Malformed bodies.
	if resp, _ := post(t, hs.URL+"/v1/insert", InsertRequest{Point: "!!"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad insert point: %d", resp.StatusCode)
	}
	if resp, _ := post(t, hs.URL+"/v1/delete", map[string]any{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing delete id: %d", resp.StatusCode)
	}
}

func TestMutationStatsSurface(t *testing.T) {
	srv, hs, _ := newMutableTestServer(t)
	r := rng.New(9)
	for i := 0; i < 10; i++ { // seals one segment at cap 8
		if resp, body := post(t, hs.URL+"/v1/insert", InsertRequest{Point: EncodePoint(hamming.Random(r, testDim))}); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d: %d %s", i, resp.StatusCode, body)
		}
	}
	id := uint64(1)
	post(t, hs.URL+"/v1/delete", DeleteRequest{ID: &id})

	snap := srv.Stats()
	if snap.Inserts != 10 || snap.Deletes != 1 || snap.MutationErrors != 0 {
		t.Fatalf("mutation counters: %+v", snap)
	}
	if snap.Mutable == nil {
		t.Fatal("mutable stats block missing")
	}
	m := snap.Mutable
	if m.SealedSegments != 1 || m.Memtable != 2 || m.Tombstones != 1 {
		t.Fatalf("mutable block: %+v", m)
	}
	// The wire schema must carry the block.
	resp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Mutable == nil || wire.Mutable.SealedSegments != 1 || wire.Inserts != 10 {
		t.Fatalf("statsz wire: %+v", wire)
	}
}

// TestMutationsOnImmutableServer pins the typed 501: static serving
// processes refuse mutations without breaking the read path.
func TestMutationsOnImmutableServer(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	resp, body := post(t, hs.URL+"/v1/insert", InsertRequest{Point: EncodePoint(make(anns.Point, 2))})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("insert on immutable: %d %s", resp.StatusCode, body)
	}
	id := uint64(0)
	if resp, _ = post(t, hs.URL+"/v1/delete", DeleteRequest{ID: &id}); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("delete on immutable: %d", resp.StatusCode)
	}
}
