package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ptrider/internal/fleet"
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
			t.Fatalf("accepted %q record does not re-encode: %v", rec.Op, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%q record re-encodes differently:\n in  %x\n out %x", rec.Op, payload, got)
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
	return &walRecord{Op: opSubmit, Submit: s}
}

// walChoose is a committed choice of id's first option.
func walChoose(id RequestID) *walRecord {
	return &walRecord{Op: opChoose, Choose: &chooseRec{ID: id, Vehicle: 0, Price: 1400, PlannedPickupOdo: 950}}
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
	if rec.Op == opChoose {
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
		op      string
	}{
		{"submit with options", func(t *testing.T) [][]byte {
			return [][]byte{parentLayout(t, walSubmit(1, 2))}
		}, opSubmit},
		{"choose", func(t *testing.T) [][]byte {
			sub, err := encodeWALRecord(nil, walSubmit(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			return [][]byte{sub, parentLayout(t, walChoose(1))}
		}, opChoose},
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
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			g := testnet.Lattice(rand.New(rand.NewSource(5)), 8, 8, 100)
			_, err = NewEngine(g, Config{Capacity: 4, Seed: 5, Durability: wal.ModeSync, WALDir: dir})
			if want := fmt.Sprintf("malformed %q journal record", tc.op); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("NewEngine over a parent-layout journal: %v, want an error naming a %s", err, want)
			}
		})
	}
}
