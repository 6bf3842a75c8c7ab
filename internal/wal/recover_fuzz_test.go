package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// encodeSegment is a segment file holding records, as the flusher
// writes them.
func encodeSegment(records ...[]byte) []byte {
	out := []byte(segMagic)
	for _, r := range records {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(r)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(r, crcTable))
		out = append(append(out, hdr[:]...), r...)
	}
	return out
}

// FuzzRecover runs Recover over a mutated segment. It must never panic,
// must leave on disk exactly the magic plus the records it returned,
// re-encoded byte for byte, and a second Recover must truncate nothing
// and return the same records.
func FuzzRecover(f *testing.F) {
	valid := encodeSegment([]byte("alpha"), []byte(""), []byte("gamma-record"))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                // torn payload
	f.Add(valid[:len(segMagic)+5])             // torn header
	f.Add([]byte(segMagic))                    // empty segment
	f.Add([]byte(segMagic[:5]))                // torn magic
	f.Add([]byte("NOTAWAL!garbage"))           // foreign file
	f.Add(append(bytes.Clone(valid), 0xff, 0)) // trailing junk
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 0xff // checksum mismatch
	f.Add(flipped)
	huge := encodeSegment([]byte("x"))
	binary.LittleEndian.PutUint32(huge[len(segMagic):], maxRecord+1) // insane length
	f.Add(huge)

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(dir)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeSegment(rec.Records...); !bytes.Equal(disk, want) {
			t.Fatalf("segment after recovery is %q, want magic plus the %d returned records %q", disk, len(rec.Records), want)
		}
		kept := len(disk) // an unrecognisable segment keeps none of its bytes
		if !bytes.HasPrefix(seg, []byte(segMagic)) {
			kept = 0
		}
		if rec.TruncatedBytes != int64(len(seg)-kept) {
			t.Fatalf("TruncatedBytes %d, but %d of the %d bytes were kept", rec.TruncatedBytes, kept, len(seg))
		}
		again, err := Recover(dir)
		if err != nil {
			t.Fatalf("second Recover: %v", err)
		}
		if again.TruncatedBytes != 0 || len(again.Records) != len(rec.Records) {
			t.Fatalf("second Recover truncated %d bytes and returned %d records, want 0 and %d",
				again.TruncatedBytes, len(again.Records), len(rec.Records))
		}
		for i := range rec.Records {
			if !bytes.Equal(again.Records[i], rec.Records[i]) {
				t.Fatalf("second Recover record %d is %q, want %q", i, again.Records[i], rec.Records[i])
			}
		}
	})
}
