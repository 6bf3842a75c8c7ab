package server_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"ptrider/internal/core"
)

func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestMapEndpoint(t *testing.T) {
	ts, eng := newTestServer(t)
	code, body := getText(t, ts.URL+"/v1/map?width=40&height=20")
	if code != http.StatusOK {
		t.Fatalf("map status %d", code)
	}
	if !strings.Contains(body, "legend:") {
		t.Fatal("map missing legend")
	}
	if !strings.Contains(body, "v") {
		t.Fatal("map missing idle vehicles")
	}
	lines := strings.Split(body, "\n")
	if !strings.HasPrefix(lines[0], "+") {
		t.Fatalf("map not bordered: %q", lines[0])
	}

	// Assign a request, then overlay that taxi's schedule.
	_, _, id := submitV1(t, ts, map[string]any{"s": 3, "d": 40, "riders": 1})
	chooseV1(t, ts, id, 0)
	rec, _ := eng.GetRequest(core.RequestID(id))

	code, body = getText(t, fmt.Sprintf("%s/v1/map?taxi=%d", ts.URL, rec.Vehicle))
	if code != http.StatusOK {
		t.Fatalf("taxi map status %d", code)
	}
	for _, glyph := range []string{"*", "P", "D"} {
		if !strings.Contains(body, glyph) {
			t.Fatalf("taxi overlay missing %q:\n%s", glyph, body)
		}
	}

	if code, _ := getText(t, ts.URL+"/v1/map?taxi=999"); code != http.StatusNotFound {
		t.Fatalf("unknown taxi map status %d", code)
	}
	if code, _ := getText(t, ts.URL+"/v1/map?taxi=abc"); code != http.StatusBadRequest {
		t.Fatalf("bad taxi id status %d", code)
	}
	if code, _ := getText(t, ts.URL+"/v1/map?width=1"); code != http.StatusBadRequest {
		t.Fatalf("bad width status %d", code)
	}
}

// TestMapRejectsOversizedOrMalformedSides pins the raster bound: one GET
// cannot ask for a 10⁵ × 10⁵ map (~120 GB of cells), and a side that is
// not a number is refused rather than silently defaulted.
func TestMapRejectsOversizedOrMalformedSides(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, q := range []string{
		"width=100000&height=100000", "width=513", "height=513",
		"width=abc", "height=1.5", "width=-3", "width=0",
	} {
		code, body := getText(t, ts.URL+"/v1/map?"+q)
		if code != http.StatusBadRequest || !strings.Contains(body, `"invalid_argument"`) {
			t.Fatalf("?%s = %d %s, want 400 invalid_argument", q, code, body)
		}
	}
	if code, _ := getText(t, ts.URL+"/v1/map?width=512&height=512"); code != http.StatusOK {
		t.Fatalf("largest map status %d, want 200", code)
	}
}
