package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ptrider/internal/fleet"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// TestLedgerFootprint pins what a finished request costs the ledger:
// 4,096 quotes, each with two options, each declined after its quote as
// on city_quote, leave at most 200 B a record behind and nothing in the
// hot map.
func TestLedgerFootprint(t *testing.T) {
	const n, ceiling = 4096, 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := newLedger()
	for id := RequestID(1); id <= n; id++ {
		opts := make([]Option, 2)
		for k := range opts {
			opts[k] = Option{Vehicle: fleet.VehicleID(k), PickupDist: 50, Price: 7}
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

// snapshotPayload captures e as a snapshot would.
func snapshotPayload(t *testing.T, e *Engine) []byte {
	t.Helper()
	e.led.mu.Lock()
	s := e.captureLocked()
	e.led.mu.Unlock()
	payload, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// withSchedules rewrites a snapshot payload into the shape written
// while options carried their planned schedules: every option of every
// record gains a "Candidate" object holding a 4-stop "Seq". It returns
// the payload and how many finished records' options it touched.
func withSchedules(t *testing.T, payload []byte) ([]byte, int) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber() // ids and counters keep every digit
	var snap map[string]any
	if err := dec.Decode(&snap); err != nil {
		t.Fatal(err)
	}
	stop := map[string]any{"Loc": 3, "Kind": 0, "Req": 1}
	finished := 0
	for _, r := range snap["Reqs"].([]any) {
		rec := r.(map[string]any)
		opts, _ := rec["Options"].([]any)
		for _, o := range opts {
			o.(map[string]any)["Candidate"] = map[string]any{
				"Seq": []any{stop, stop, stop, stop}, "PickupDist": 1, "TotalDist": 2, "Delta": 1,
			}
		}
		if st, _ := rec["Status"].(json.Number).Int64(); len(opts) > 0 &&
			(RequestStatus(st) == StatusDeclined || RequestStatus(st) == StatusCompleted) {
			finished++
		}
	}
	out, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return out, finished
}

// TestRecoveryFromSnapshotArchivesFinishedRecords restores a snapshot
// in the shape written while options carried their quoted schedules —
// finished records among them, as before the archive existed — and
// checks the recovered ledger equals the live one: same records, bit
// for bit, same live and archived split, same counters and vehicle
// index. The schedules are ignored: an option is only its triple.
func TestRecoveryFromSnapshotArchivesFinishedRecords(t *testing.T) {
	live := archiveEngine(t)
	live.AddVehiclesUniform(10)
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

	payload, finished := withSchedules(t, snapshotPayload(t, live))
	if finished == 0 {
		t.Fatal("the old-shape snapshot carries no finished record's schedule")
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

}
