package core

import (
	"bytes"
	"testing"
)

// FuzzWALRecord: the journal decoder never panics on any payload, and
// every payload it accepts re-encodes byte for byte — a record that
// decodes to something the encoder would write differently is a record
// recovery could misread. The checked-in corpus holds one record per
// tag.
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
