package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Recovered is the outcome of scanning a journal directory: the newest
// valid snapshot (if any) plus every intact record appended after it,
// in order, ready to be replayed into a fresh engine.
type Recovered struct {
	// SnapshotSeg names the snapshot that Snapshot holds (0 = none;
	// replay starts from genesis).
	SnapshotSeg uint64
	// Snapshot is the validated snapshot payload, nil when none.
	Snapshot []byte
	// Records are the surviving record payloads of segments ≥
	// SnapshotSeg, in append order.
	Records [][]byte
	// NextSeg is the segment number a reopened journal should append
	// to — one past the newest segment seen (or SnapshotSeg/1).
	NextSeg uint64

	// TruncatedBytes counts bytes chopped off a torn or corrupt tail.
	TruncatedBytes int64
	// DroppedSegments counts segments discarded because an earlier
	// segment was truncated (records after a tear are unordered noise).
	DroppedSegments int
	// CorruptSnapshots counts snapshot files that failed validation
	// and were skipped in favour of an older one.
	CorruptSnapshots int
}

// Recover scans dir and returns the newest consistent state: the best
// valid snapshot plus the intact journal tail. Corruption handling:
//
//   - A snapshot that fails validation is skipped (counted) and the
//     next-older one is tried; *.tmp leftovers are removed.
//   - A record with a bad length or checksum, or a partial header,
//     tears the segment: the file is truncated back to the last intact
//     record and all later segments are dropped (counted) — bytes
//     after a tear have no defined order.
//
// A missing or empty directory recovers to the zero state (NextSeg 1).
func Recover(dir string) (*Recovered, error) {
	rec := &Recovered{NextSeg: 1}
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return rec, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}

	var segs, snaps []uint64
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash mid-snapshot (or mid-anything) leaves temp files;
			// they were never visible state.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		var n uint64
		switch {
		case parseName(name, "journal-", ".wal", &n):
			segs = append(segs, n)
		case parseName(name, "snapshot-", ".snap", &n):
			snaps = append(snaps, n)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	sort.Slice(snaps, func(a, b int) bool { return snaps[a] < snaps[b] })

	// Newest valid snapshot wins; invalid ones fall back older.
	for i := len(snaps) - 1; i >= 0; i-- {
		payload, err := readSnapshot(dir, snaps[i])
		if err != nil {
			rec.CorruptSnapshots++
			continue
		}
		rec.SnapshotSeg = snaps[i]
		rec.Snapshot = payload
		break
	}

	torn := false
	for _, seg := range segs {
		if seg < rec.SnapshotSeg {
			continue // covered by the snapshot
		}
		if torn {
			// A tear in an earlier segment makes later segments
			// unreachable state — a correct writer never starts
			// segment K+1 before K is complete.
			rec.DroppedSegments++
			_ = os.Remove(filepath.Join(dir, segName(seg)))
			continue
		}
		records, trunc, err := scanSegment(filepath.Join(dir, segName(seg)))
		if err != nil {
			return nil, err
		}
		rec.Records = append(rec.Records, records...)
		if trunc > 0 {
			rec.TruncatedBytes += trunc
			torn = true
		}
		if seg+1 > rec.NextSeg {
			rec.NextSeg = seg + 1
		}
	}
	if rec.SnapshotSeg+1 > rec.NextSeg {
		rec.NextSeg = rec.SnapshotSeg + 1
	}
	return rec, nil
}

// scanSegment reads every intact record of one segment file. On a torn
// or corrupt suffix it truncates the file back to the last intact
// record and reports how many bytes were dropped.
func scanSegment(path string) (records [][]byte, truncated int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	if len(raw) < len(segMagic) || string(raw[:len(segMagic)]) != segMagic {
		// Unrecognisable segment: the whole file is torn, and it is
		// rewritten as an empty segment, so a second scan finds
		// nothing left to repair.
		if err := os.WriteFile(path, []byte(segMagic), 0o644); err != nil {
			return nil, 0, fmt.Errorf("wal: %w", err)
		}
		return nil, int64(len(raw)), nil
	}
	off := len(segMagic)
	good := off
	for off < len(raw) {
		if off+8 > len(raw) {
			break // partial header
		}
		n := binary.LittleEndian.Uint32(raw[off : off+4])
		sum := binary.LittleEndian.Uint32(raw[off+4 : off+8])
		if n > maxRecord || off+8+int(n) > len(raw) {
			break // insane length or partial payload
		}
		payload := raw[off+8 : off+8+int(n)]
		if crc32.Checksum(payload, crcTable) != sum {
			break // bit rot or a torn rewrite
		}
		records = append(records, payload)
		off += 8 + int(n)
		good = off
	}
	if good < len(raw) {
		truncated = int64(len(raw) - good)
		if err := truncateTo(path, int64(good)); err != nil {
			return nil, 0, err
		}
	}
	return records, truncated, nil
}

func truncateTo(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// newestSegment finds the highest-numbered segment in dir (0 when
// none) — used by the corruption helpers.
func newestSegment(dir string) (uint64, string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, "", fmt.Errorf("wal: %w", err)
	}
	var best uint64
	var path string
	for _, e := range ents {
		var n uint64
		if parseName(e.Name(), "journal-", ".wal", &n) && n >= best {
			best = n
			path = filepath.Join(dir, e.Name())
		}
	}
	return best, path, nil
}
