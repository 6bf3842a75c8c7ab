package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/roadnet"
	"ptrider/internal/server"
)

// assignedShard is a small shard handler over an engine holding one
// assigned request.
func assignedShard(t *testing.T) (http.Handler, *core.Engine) {
	t.Helper()
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 5, Height: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, core.Config{Capacity: 4, Algorithm: core.AlgoDualSide, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.AddVehiclesUniform(3)
	for d := roadnet.VertexID(1); int(d) < g.NumVertices(); d++ {
		rec, err := eng.Submit(0, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Options) > 0 {
			if err := eng.Choose(rec.ID, 0); err != nil {
				t.Fatal(err)
			}
			return NewShardHandler(eng, ShardOptions{}), eng
		}
		_ = eng.Decline(rec.ID)
	}
	t.Fatal("no request quoted options")
	return nil, nil
}

// FuzzRPCCancelBody drives POST /rpc/cancel, the one /rpc body decoded
// from a caller, with arbitrary bytes against a shard holding one
// assigned request. No input panics. A 200 answers only a body that
// decodes, unknown fields refused, to an id that re-encodes to itself
// and whose record now reads declined. Anything else is the error envelope, with the status and
// code the /v1 classification gives: BodyErrorStatus and
// invalid_argument for a body that does not decode, ClassifyError of
// the envelope's own error for the engine's refusal.
func FuzzRPCCancelBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > server.MaxBodyBytes {
			t.Skip("past the body limit")
		}
		h, eng := assignedShard(t)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/rpc/cancel", bytes.NewReader(body)))

		var in idWire
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		decErr := dec.Decode(&in)
		if w.Code == http.StatusOK {
			if decErr != nil {
				t.Fatalf("200 for %q, which does not decode: %v", body, decErr)
			}
			var again idWire
			if out, err := json.Marshal(in); err != nil || json.Unmarshal(out, &again) != nil || again != in {
				t.Fatalf("id %d does not survive re-encoding: %+v, %v", in.ID, again, err)
			}
			if rec, err := eng.GetRequest(again.ID); err != nil || rec.Status != core.StatusDeclined {
				t.Fatalf("200 for %q, but request %d reads %+v, %v", body, again.ID, rec, err)
			}
			return
		}
		var env wireEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
			t.Fatalf("status %d for %q without the error envelope: %q", w.Code, body, w.Body.String())
		}
		if decErr != nil {
			if env.Error.Code != "invalid_argument" || w.Code != server.BodyErrorStatus(decErr) {
				t.Fatalf("undecodable %q answered %d %q", body, w.Code, env.Error.Code)
			}
			return
		}
		if status, p := core.ClassifyError(env.Error.Err(), http.StatusUnprocessableEntity); status != w.Code || p.Code != env.Error.Code {
			t.Fatalf("%q answered %d %q; the classification gives %d %q", body, w.Code, env.Error.Code, status, p.Code)
		}
	})
}
