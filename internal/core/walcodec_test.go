package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ptrider/internal/fleet"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
	"ptrider/internal/wal"
)

// FuzzWALRecord: the journal decoder never panics on any payload, and
// every payload it accepts re-encodes byte for byte — a record that
// decodes to something the encoder would write differently is a record
// recovery could misread. The checked-in corpus holds one record per
// tag, and a submit record in the layout whose options carried their
// stop sequences, which the decoder refuses.
func FuzzWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return
		}
		got, err := encodeWALRecord(nil, &rec)
		if err != nil {
			t.Fatalf("accepted tag-%d record does not re-encode: %v", rec.Op, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("tag-%d record re-encodes differently:\n in  %x\n out %x", rec.Op, payload, got)
		}
	})
}

// Fixed sizes of the journal layout: a submit record without an
// idempotency key or options, and a choose record.
const (
	submitHeaderBytes = 1 + 8 + 3*4 + 6*8 + 4 + 8 + 4 + 4
	chooseBytes       = 1 + 8 + 4 + 4 + 8 + 8
)

// walSubmit is a registered quote with k options.
func walSubmit(id RequestID, k int) *walRecord {
	s := &submitRec{ID: id, S: 3, D: 41, Riders: 2, Wait: 300, Sigma: 0.5, SD: 1200,
		Clock: 60, FareRatio: 1, SurgeMult: 1.25, SurgeCell: 4, SurgeEpoch: 2}
	for i := 0; i < k; i++ {
		s.Options = append(s.Options, Option{Vehicle: fleet.VehicleID(i), PickupDist: 100 * float64(i+1), Price: 1400 - float64(i)})
	}
	return &walRecord{Op: tagSubmit, Submit: s}
}

// walChoose is a committed choice of id's first option.
func walChoose(id RequestID) *walRecord {
	return &walRecord{Op: tagChoose, Choose: &chooseRec{ID: id, Vehicle: 0, Price: 1400, PlannedPickupOdo: 950}}
}

// TestWALRecordLayout pins the journal layout: an option is its
// vehicle, pick-up distance and price, 20 bytes, and nothing of the
// schedule behind it; a choice is the commit outcome alone.
func TestWALRecordLayout(t *testing.T) {
	for k := 0; k <= 4; k++ {
		got, err := encodeWALRecord(nil, walSubmit(7, k))
		if err != nil {
			t.Fatal(err)
		}
		if want := submitHeaderBytes + 20*k; len(got) != want {
			t.Fatalf("a submit record with %d options encodes to %d bytes, want %d", k, len(got), want)
		}
	}
	got, err := encodeWALRecord(nil, walChoose(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != chooseBytes {
		t.Fatalf("a choose record encodes to %d bytes, want %d", len(got), chooseBytes)
	}
}

// parentLayout rewrites a record's encoding into the layout journals
// had while options carried their schedules: each submit option gains
// the candidate's pick-up, total and delta and a 2-stop sequence, and
// a choose record gains a trailing re-probe flag byte.
func parentLayout(t *testing.T, rec *walRecord) []byte {
	t.Helper()
	if rec.Op == tagChoose {
		b, err := encodeWALRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, 0)
	}
	opts := rec.Submit.Options
	rec.Submit.Options = nil
	b, err := encodeWALRecord(nil, rec)
	rec.Submit.Options = opts
	if err != nil {
		t.Fatal(err)
	}
	b = appendU32(b[:len(b)-4], uint32(len(opts)))
	for _, o := range opts {
		b = appendU32(b, uint32(o.Vehicle))
		b = appendF64(b, o.PickupDist)
		b = appendF64(b, o.Price)
		b = appendF64(b, o.PickupDist)
		b = appendF64(b, 2000)
		b = appendF64(b, 800)
		b = appendU32(b, 2)
		for _, stop := range []struct {
			loc  uint32
			kind byte
		}{{3, 0}, {41, 1}} {
			b = appendU32(b, stop.loc)
			b = append(b, stop.kind)
			b = appendU64(b, uint64(rec.Submit.ID))
		}
	}
	return b
}

// TestParentJournalRefused: a journal written while options carried
// their schedules is refused at recovery, not misread. Each case is a
// segment whose last record is in that layout — a submit with options,
// and a choice after a submit in the current layout — and NewEngine
// over the directory must fail on it as a malformed record.
func TestParentJournalRefused(t *testing.T) {
	for _, tc := range []struct {
		name    string
		records func(t *testing.T) [][]byte
		tag     byte
	}{
		{"submit with options", func(t *testing.T) [][]byte {
			return [][]byte{parentLayout(t, walSubmit(1, 2))}
		}, tagSubmit},
		{"choose", func(t *testing.T) [][]byte {
			sub, err := encodeWALRecord(nil, walSubmit(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			return [][]byte{sub, parentLayout(t, walChoose(1))}
		}, tagChoose},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			none := func([]byte) error { return nil }
			j, err := wal.Open(dir, wal.Options{Mode: wal.ModeSync}, none, none)
			if err != nil {
				t.Fatal(err)
			}
			for _, payload := range tc.records(t) {
				c, err := j.Append(payload)
				if err == nil {
					err = c.Wait()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(nil, nil); err != nil {
				t.Fatal(err)
			}
			g := testnet.Lattice(rand.New(rand.NewSource(5)), 8, 8, 100)
			_, err = NewEngine(g, Config{Capacity: 4, Seed: 5, Durability: wal.ModeSync, WALDir: dir})
			if want := fmt.Sprintf("malformed journal record, tag %d", tc.tag); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("NewEngine over a parent-layout journal: %v, want %q", err, want)
			}
		})
	}
}

// TestRetiredSurgeRecordSkipped: a surge-on engine journals no surge
// epoch records (tag 8) — replaying a tick re-derives its epoch — and
// a journal from before that, holding a tag-8 record after a tick,
// recovers to the same state as the same journal without it.
func TestRetiredSurgeRecordSkipped(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(5)), 8, 8, 100)
	cfg := func(dir string) Config {
		return Config{Capacity: 4, Seed: 5, MaxWaitSeconds: 600, MaxPickupSeconds: 1e6,
			SurgeEnabled: true, SurgeEpochSeconds: 5, SurgeAlpha: 0.5,
			Durability: wal.ModeSync, WALDir: dir}
	}
	plain := t.TempDir()
	e, err := NewEngine(g, cfg(plain))
	if err != nil {
		t.Fatal(err)
	}
	e.AddVehiclesUniform(6)
	for i := 0; i < 12; i++ {
		spec := SubmitSpec{S: roadnet.VertexID(i), D: roadnet.VertexID(63 - i), Riders: 1, Constraints: DefaultConstraints()}
		if _, err := e.SubmitRequest(spec); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := e.Tick(5); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ep, _, _ := e.tracker.Cells(); ep != 4 {
		t.Fatalf("surge epoch %d after four epoch-long ticks, want 4", ep)
	}
	// Closed without a final snapshot: recovery replays every record.
	if err := e.journal.Close(nil, nil); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(plain)
	if err != nil {
		t.Fatal(err)
	}
	for i, payload := range rec.Records {
		if payload[0] == tagRetiredSurge {
			t.Fatalf("record %d of a surge-on journal is a surge epoch", i)
		}
	}
	if last := rec.Records[len(rec.Records)-1]; last[0] != tagTick {
		t.Fatalf("the journal ends in a tag-%d record, want a tick", last[0])
	}

	// The same journal plus an epoch record in the retired layout: the
	// epoch, the clock the next is due at and 256 EMA ratios, all of
	// which would change the tracker if replay applied them.
	old := t.TempDir()
	ents, err := os.ReadDir(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		raw, err := os.ReadFile(filepath.Join(plain, ent.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(old, ent.Name()), raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	epoch := appendF64(appendU64([]byte{tagRetiredSurge}, 99), 1e9)
	epoch = appendU32(epoch, 256)
	for c := 0; c < 256; c++ {
		epoch = appendF64(epoch, 7.5)
	}
	none := func([]byte) error { return nil }
	j, err := wal.Open(old, wal.Options{Mode: wal.ModeSync}, none, none)
	if err != nil {
		t.Fatal(err)
	}
	c, err := j.Append(epoch)
	if err == nil {
		err = c.Wait()
	}
	if err == nil {
		err = j.Close(nil, nil)
	}
	if err != nil {
		t.Fatal(err)
	}

	want, err := NewEngine(g, cfg(plain))
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine(g, cfg(old))
	if err != nil {
		t.Fatalf("recovering a journal with a tag-8 record: %v", err)
	}
	gEpoch, gEMA, gMult := got.tracker.Cells()
	wEpoch, wEMA, wMult := want.tracker.Cells()
	if gEpoch != wEpoch || !slices.Equal(gEMA, wEMA) || !slices.Equal(gMult, wMult) || got.surgeNext != want.surgeNext {
		t.Fatalf("with the tag-8 record: epoch %d, next %v; without: epoch %d, next %v (or the cells differ)",
			gEpoch, got.surgeNext, wEpoch, want.surgeNext)
	}
	if gs, ws := got.Stats(), want.Stats(); gs.Clock != ws.Clock || gs.Requests != ws.Requests || gs.Surge != ws.Surge {
		t.Fatalf("with the tag-8 record: %+v\nwithout: %+v", gs, ws)
	}
}
