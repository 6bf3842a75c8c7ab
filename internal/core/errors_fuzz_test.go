package core

import "testing"

// FuzzErrorPayload: a payload a gateway receives from a shard, decoded
// by ErrorPayload.Err and classified again by ClassifyError as the
// gateway does before answering its caller, never panics. A code from
// errorTable comes back with the same code and status, cross_city with
// the same city pair; any other code comes back internal, at 500, with
// the message intact. The checked-in corpus holds one payload per table
// code plus the edges.
func FuzzErrorPayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, code, msg, origin, dest string) {
		p := ErrorPayload{Code: code, Message: msg, Origin: origin, Dest: dest}
		status, back := ClassifyError(p.Err(), 500)
		for _, row := range errorTable {
			if row.code != code {
				continue
			}
			if back.Code != code || status != row.status {
				t.Fatalf("%+v came back as %d %+v, want %d %q", p, status, back, row.status, code)
			}
			if code == "cross_city" && (back.Origin != origin || back.Dest != dest) {
				t.Fatalf("%+v lost its city pair: %+v", p, back)
			}
			return
		}
		if back.Code != "internal" || status != 500 || back.Message != msg {
			t.Fatalf("%+v came back as %d %+v, want 500 internal with its message", p, status, back)
		}
	})
}
