package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ptrider/internal/fleet"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// TestLedgerFootprint pins what a finished request costs the ledger:
// 4,096 quotes, each with two options on 4-stop schedules, each
// declined after its quote as on city_quote, leave at most 200 B a
// record behind and nothing in the hot map.
func TestLedgerFootprint(t *testing.T) {
	const n, ceiling = 4096, 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := newLedger()
	for id := RequestID(1); id <= n; id++ {
		opts := make([]Option, 2)
		for k := range opts {
			opts[k] = Option{Vehicle: fleet.VehicleID(k), PickupDist: 50, Price: 7,
				Candidate: kinetic.Candidate{Seq: make([]kinetic.Point, 4), Delta: 20}}
		}
		l.install(newQuotedRecord(&submitRec{ID: id, SD: 100, SurgeMult: 1, Options: opts}), "")
		if err := l.decline(id); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d B per finished record", per)
	if per > ceiling {
		t.Fatalf("%d B per finished record, ceiling %d", per, ceiling)
	}
	if len(l.reqs) != 0 || l.arch.n != n {
		t.Fatalf("%d live and %d archived records, want 0 and %d", len(l.reqs), l.arch.n, n)
	}
}

// archiveEngine is a small city whose riders quote, choose, decline and
// finish trips.
func archiveEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(testnet.Lattice(rand.New(rand.NewSource(5)), 8, 8, 100), Config{
		Capacity: 4, Seed: 5,
		MaxWaitSeconds: 600, Sigma: 0.4, MaxPickupSeconds: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// ledgerRecords is every record a listing returns, id ascending.
func ledgerRecords(l *ledger) []RequestRecord {
	var out []RequestRecord
	l.list(RequestFilter{}, 0, func(rec *RequestRecord) { out = append(out, *rec) })
	return out
}

// snapshotPayload captures e as a snapshot would; edit, when non-nil,
// rewrites the payload before it is encoded.
func snapshotPayload(t *testing.T, e *Engine, edit func(*engSnap)) []byte {
	t.Helper()
	e.led.mu.Lock()
	s := e.captureLocked()
	e.led.mu.Unlock()
	if edit != nil {
		edit(s)
	}
	payload, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestRecoveryFromSnapshotArchivesFinishedRecords restores a snapshot
// in the shape written before the archive existed — finished records
// still carrying their quoted schedules — and checks the recovered
// ledger equals the live one: same records, bit for bit, same live and
// archived split, same counters and vehicle index. A fresh snapshot of
// a decline-only ledger then holds no schedule at all.
func TestRecoveryFromSnapshotArchivesFinishedRecords(t *testing.T) {
	live := archiveEngine(t)
	live.AddVehiclesUniform(10)
	quoted := map[RequestID][]Option{}
	rng := rand.New(rand.NewSource(9))
	nv := live.Graph().NumVertices()
	for i := 0; i < 40; i++ {
		s, d := roadnet.VertexID(rng.Intn(nv)), roadnet.VertexID(rng.Intn(nv))
		if s == d {
			continue
		}
		rec, err := live.Submit(s, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		quoted[rec.ID] = rec.Options
		switch {
		case i%4 == 3: // left quoted
		case i%2 == 0 && len(rec.Options) > 0:
			if err := live.Choose(rec.ID, 0); err != nil {
				t.Fatal(err)
			}
		default:
			if err := live.Decline(rec.ID); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := live.Tick(20); err != nil {
			t.Fatal(err)
		}
	}
	st := live.Stats()
	if st.Declined == 0 || st.Completed == 0 || len(live.led.reqs) == 0 {
		t.Fatalf("workload left nothing to compare: %+v, %d live records", st, len(live.led.reqs))
	}

	schedules := 0
	payload := snapshotPayload(t, live, func(s *engSnap) {
		for i := range s.Reqs {
			r := &s.Reqs[i]
			r.Options = quoted[r.ID]
			if r.Status == StatusDeclined || r.Status == StatusCompleted {
				for _, o := range r.Options {
					schedules += len(o.Candidate.Seq)
				}
			}
		}
	})
	if schedules == 0 {
		t.Fatal("the parent-shape snapshot carries no finished record's schedule")
	}
	restored := archiveEngine(t)
	if err := restored.applySnapshot(payload); err != nil {
		t.Fatal(err)
	}
	if got, want := ledgerRecords(restored.led), ledgerRecords(live.led); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored records differ from the live ones:\n got %+v\nwant %+v", got, want)
	}
	if got, want := stateOf(restored.led), stateOf(live.led); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored ledger state:\n got %+v\nwant %+v", got, want)
	}
	if len(restored.led.reqs) != len(live.led.reqs) || restored.led.arch.n != live.led.arch.n {
		t.Fatalf("restored %d live / %d archived, live engine %d / %d",
			len(restored.led.reqs), restored.led.arch.n, len(live.led.reqs), live.led.arch.n)
	}

	declined := archiveEngine(t)
	declined.AddVehiclesUniform(10)
	for i := 0; i < 20; i++ {
		rec, err := declined.Submit(roadnet.VertexID(i), roadnet.VertexID(nv-1-i), 1)
		if err != nil || len(rec.Options) == 0 || len(rec.Options[0].Candidate.Seq) == 0 {
			t.Fatalf("submit %d: %v, no quoted schedule", i, err)
		}
		if err := declined.Decline(rec.ID); err != nil {
			t.Fatal(err)
		}
	}
	if p := snapshotPayload(t, declined, nil); bytes.Contains(p, []byte(`"Seq":[`)) {
		t.Fatalf("a decline-only snapshot carries schedules: %.300s", p)
	}
}
