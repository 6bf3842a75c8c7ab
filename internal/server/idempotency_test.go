package server_test

// HTTP-level contract of the Idempotency-Key request header on
// POST /v1/requests: a retried submission with the same key answers
// with the original record instead of quoting a second request.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

func postWithKey(t *testing.T, url, key string, body any) map[string]json.RawMessage {
	t.Helper()
	b, _ := json.Marshal(body)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func idOf(t *testing.T, view map[string]json.RawMessage) int64 {
	t.Helper()
	var id int64
	if err := json.Unmarshal(view["id"], &id); err != nil {
		t.Fatalf("id field: %v", err)
	}
	return id
}

func TestIdempotencyKeyHeader(t *testing.T) {
	ts, eng := newTestServer(t)
	body := map[string]any{"s": 3, "d": 40, "riders": 1}

	first := postWithKey(t, ts.URL+"/v1/requests", "retry-1", body)
	before := eng.Stats().Requests

	// Same key, even with different endpoints: the original answers.
	second := postWithKey(t, ts.URL+"/v1/requests", "retry-1", map[string]any{"s": 7, "d": 12, "riders": 1})
	if idOf(t, first) != idOf(t, second) {
		t.Fatalf("retried submission forked: id %d then %d", idOf(t, first), idOf(t, second))
	}
	if after := eng.Stats().Requests; after != before {
		t.Fatalf("retry registered a new request: %d → %d", before, after)
	}

	// A different key is a different submission.
	third := postWithKey(t, ts.URL+"/v1/requests", "retry-2", body)
	if idOf(t, third) == idOf(t, first) {
		t.Fatalf("distinct keys collapsed onto id %d", idOf(t, first))
	}

	// No key: every submission is fresh.
	a := postWithKey(t, ts.URL+"/v1/requests", "", body)
	b := postWithKey(t, ts.URL+"/v1/requests", "", body)
	if idOf(t, a) == idOf(t, b) {
		t.Fatalf("keyless submissions deduplicated onto id %d", idOf(t, a))
	}
}

// TestStatsDurabilityPanel verifies the /v1/stats payload carries the
// engine's durability panel (mode "off" on a journal-free backend —
// the field must be present either way).
func TestStatsDurabilityPanel(t *testing.T) {
	ts, _ := newTestServer(t)
	var out struct {
		Total struct {
			Durability struct {
				Mode string `json:"Mode"`
			} `json:"Durability"`
		} `json:"total"`
	}
	resp := getJSON(t, ts.URL+"/v1/stats", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if out.Total.Durability.Mode != "off" {
		t.Fatalf("durability panel mode %q, want \"off\"", out.Total.Durability.Mode)
	}
}
