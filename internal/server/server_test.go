package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/fleet"
	"ptrider/internal/server"
	"ptrider/internal/testnet"
)

func newTestServer(t *testing.T) (*httptest.Server, *core.Engine) {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	eng, err := core.NewEngine(g, core.Config{
		Capacity:  4,
		Algorithm: core.AlgoDualSide, Seed: 1,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.AddVehiclesUniform(10)
	ts := httptest.NewServer(server.New(eng).Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

// submitV1 posts one request body to /v1/requests and returns the
// response with the new record's id.
func submitV1(t *testing.T, ts *httptest.Server, body map[string]any) (*http.Response, map[string]json.RawMessage, int64) {
	t.Helper()
	resp, out := postJSON(t, ts.URL+"/v1/requests", body)
	var id int64
	json.Unmarshal(out["id"], &id)
	return resp, out, id
}

// chooseV1 commits an option through POST /v1/requests/{id}/choice.
func chooseV1(t *testing.T, ts *httptest.Server, id int64, option int) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	return postJSON(t, fmt.Sprintf("%s/v1/requests/%d/choice", ts.URL, id), map[string]any{"option": option})
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	var out map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &out)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, out)
	}
}

func TestRequestChooseFlow(t *testing.T) {
	ts, eng := newTestServer(t)

	resp, out, id := submitV1(t, ts, map[string]any{"s": 3, "d": 40, "riders": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request status %d: %v", resp.StatusCode, out)
	}
	var options []map[string]any
	json.Unmarshal(out["options"], &options)
	if id == 0 || len(options) == 0 {
		t.Fatalf("request response: id=%d options=%v", id, options)
	}
	if _, ok := options[0]["pickup_seconds"]; !ok {
		t.Fatal("option missing pickup_seconds")
	}
	if _, ok := options[0]["price"]; !ok {
		t.Fatal("option missing price")
	}

	if resp, _ = chooseV1(t, ts, id, 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("choose status %d", resp.StatusCode)
	}

	// GET the record back.
	var rec map[string]any
	getJSON(t, fmt.Sprintf("%s/v1/requests/%d", ts.URL, id), &rec)
	if rec["status"] != "assigned" {
		t.Fatalf("record status = %v", rec["status"])
	}

	// Engine agrees.
	r, err := eng.GetRequest(core.RequestID(id))
	if err != nil || r.Status != core.StatusAssigned {
		t.Fatalf("engine record: %+v, %v", r, err)
	}
}

func TestStatsAndParams(t *testing.T) {
	ts, _ := newTestServer(t)
	var st struct {
		Total map[string]any `json:"total"`
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	if _, ok := st.Total["SharingRate"]; !ok {
		t.Fatalf("stats missing SharingRate: %v", st)
	}

	var params map[string]any
	getJSON(t, ts.URL+"/v1/params", &params)
	if params["algorithm"] != "dual-side" {
		t.Fatalf("algorithm = %v", params["algorithm"])
	}
	if params["num_taxis"] != float64(10) {
		t.Fatalf("num_taxis = %v", params["num_taxis"])
	}

	resp, _ := postJSON(t, ts.URL+"/v1/params", map[string]any{"algorithm": "single-side"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("set params status %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/params", &params)
	if params["algorithm"] != "single-side" {
		t.Fatalf("algorithm after switch = %v", params["algorithm"])
	}
}

func TestTaxiSchedules(t *testing.T) {
	ts, eng := newTestServer(t)
	// Assign a request so taxi 0..9 has schedules; find its vehicle.
	_, _, id := submitV1(t, ts, map[string]any{"s": 3, "d": 40, "riders": 1})
	chooseV1(t, ts, id, 0)
	rec, _ := eng.GetRequest(core.RequestID(id))

	var taxi struct {
		Location int32 `json:"location"`
		Branches [][]struct {
			Vertex  int32  `json:"vertex"`
			Kind    string `json:"kind"`
			Request int64  `json:"request"`
		} `json:"branches"`
	}
	getJSON(t, fmt.Sprintf("%s/v1/vehicles/%d", ts.URL, rec.Vehicle), &taxi)
	if len(taxi.Branches) == 0 {
		t.Fatal("assigned taxi has no schedule branches")
	}
	foundPickup := false
	for _, b := range taxi.Branches {
		for _, p := range b {
			if p.Request == id && p.Kind == "pickup" {
				foundPickup = true
			}
		}
	}
	if !foundPickup {
		t.Fatal("schedules do not show the committed pickup")
	}
}

func TestTickAdvancesClock(t *testing.T) {
	ts, eng := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/v1/ticks", map[string]any{"seconds": 7.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d", resp.StatusCode)
	}
	var clock float64
	json.Unmarshal(out["clock"], &clock)
	if clock != 7.5 || eng.Clock() != 7.5 {
		t.Fatalf("clock = %v / %v", clock, eng.Clock())
	}
}

// TestTickNegativeSecondsIs400 pins the handler's error classification:
// a caller error like {"seconds": -1} is a 400, not a 500, and the
// clock does not move.
func TestTickNegativeSecondsIs400(t *testing.T) {
	ts, eng := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/v1/ticks", map[string]any{"seconds": -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative tick status = %d, want 400 (%v)", resp.StatusCode, out)
	}
	if _, ok := out["error"]; !ok {
		t.Fatal("negative tick response has no error field")
	}
	if eng.Clock() != 0 {
		t.Fatalf("negative tick moved the clock to %v", eng.Clock())
	}
}

// TestTickInternalFailureIs500 pins the other side: an internal fleet
// movement failure keeps answering 500, and a failed step leaves the
// reported clock unchanged.
func TestTickInternalFailureIs500(t *testing.T) {
	ts, eng := newTestServer(t)
	if resp, _ := postJSON(t, ts.URL+"/v1/ticks", map[string]any{"seconds": 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup tick status %d", resp.StatusCode)
	}
	eng.SetStepOverride(func(float64) ([]fleet.Event, error) {
		return nil, fmt.Errorf("injected fleet failure")
	})
	resp, out := postJSON(t, ts.URL+"/v1/ticks", map[string]any{"seconds": 3})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("internal failure status = %d, want 500 (%v)", resp.StatusCode, out)
	}
	if eng.Clock() != 2 {
		t.Fatalf("failed step moved the clock to %v, want 2", eng.Clock())
	}
	eng.SetStepOverride(nil)
	if resp, _ := postJSON(t, ts.URL+"/v1/ticks", map[string]any{"seconds": 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery tick status %d", resp.StatusCode)
	}
	if eng.Clock() != 3 {
		t.Fatalf("clock after recovery = %v, want 3", eng.Clock())
	}
}

// spaces is a request body of n bytes of JSON whitespace that counts
// what its consumer took.
type spaces struct{ n, read int }

func (s *spaces) Read(p []byte) (int, error) {
	if s.read >= s.n {
		return 0, io.EOF
	}
	k := min(len(p), s.n-s.read)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.read += k
	return k, nil
}

// TestOversizedBodyIs413 pins the body limit on both /v1 read paths
// (the buffered submit and the streaming decoders): a 2 MiB body is
// refused with 413 invalid_argument, and the handler stops reading at
// the limit instead of taking the whole body in.
func TestOversizedBodyIs413(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	eng, err := core.NewEngine(g, core.Config{Capacity: 4, Seed: 1})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	h := server.New(eng).Handler()
	for _, path := range []string{"/v1/requests", "/v1/ticks", "/v1/requests/1/choice", "/v1/params"} {
		body := &spaces{n: 2 * server.MaxBodyBytes}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413 (%s)", path, rec.Code, rec.Body)
		}
		var out struct {
			Error core.ErrorPayload `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error.Code != "invalid_argument" {
			t.Fatalf("%s: envelope %s (%v), want code invalid_argument", path, rec.Body, err)
		}
		if body.read > server.MaxBodyBytes+64<<10 {
			t.Fatalf("%s: handler read %d bytes of an oversized body, limit %d", path, body.read, server.MaxBodyBytes)
		}
	}
	if recs, err := eng.Requests("", core.RequestFilter{}, 0); eng.Clock() != 0 || err != nil || len(recs) != 0 {
		t.Fatalf("a refused body changed engine state: clock %v, %d records, %v", eng.Clock(), len(recs), err)
	}
}

// TestCitiesIfNoneMatch pins the server's one weak If-None-Match
// comparison through GET /v1/cities: the exact tag, its W/ form, a list
// naming it and * revalidate to a bodiless 304; a tag that does not
// match is a 200 with the body. Every answer carries the tag.
func TestCitiesIfNoneMatch(t *testing.T) {
	ts, _ := newTestServer(t)
	get := func(inm string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/cities", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET /v1/cities (If-None-Match %q): %v", inm, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return resp, body
	}
	first, want := get("")
	tag := first.Header.Get("ETag")
	if first.StatusCode != http.StatusOK || tag == "" || len(want) == 0 {
		t.Fatalf("plain GET: status %d, ETag %q, %d body bytes", first.StatusCode, tag, len(want))
	}
	for _, tc := range []struct {
		inm    string
		status int
	}{
		{tag, http.StatusNotModified},
		{"W/" + tag, http.StatusNotModified},
		{`"other", ` + tag, http.StatusNotModified},
		{`W/"other",W/` + tag, http.StatusNotModified},
		{"*", http.StatusNotModified},
		{`"other"`, http.StatusOK},
		{`W/"other", "another"`, http.StatusOK},
	} {
		resp, body := get(tc.inm)
		if resp.StatusCode != tc.status {
			t.Errorf("If-None-Match %q: status %d, want %d", tc.inm, resp.StatusCode, tc.status)
		}
		if got := resp.Header.Get("ETag"); got != tag {
			t.Errorf("If-None-Match %q: ETag %q, want %q", tc.inm, got, tag)
		}
		if tc.status == http.StatusOK && !bytes.Equal(body, want) {
			t.Errorf("If-None-Match %q: body %q, want %q", tc.inm, body, want)
		}
		if tc.status == http.StatusNotModified && len(body) != 0 {
			t.Errorf("If-None-Match %q: 304 carried a body %q", tc.inm, body)
		}
	}
}
