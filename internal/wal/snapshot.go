package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Snapshot file format: 8-byte magic, then uint32 LE payload length,
// uint32 LE CRC32C(payload), payload. Written to a temp file, fsynced,
// and renamed into place so a crash mid-write never clobbers an older
// valid snapshot.

// Snapshot durably snapshots the journal's owner: under mu, the lock
// the owner appends under, the journal rotates to a fresh segment and
// capture returns the owner's state, so no record lands between the
// two; the state is then JSON-encoded and written outside the lock as
// the snapshot named by the new segment, and the segments and
// snapshots it covers are pruned. A dead journal refuses with Err.
func (j *Journal) Snapshot(mu sync.Locker, capture func() any) error {
	if err := j.Err(); err != nil {
		return err
	}
	mu.Lock()
	seg, err := j.rotate()
	if err != nil {
		mu.Unlock()
		return err
	}
	state := capture()
	mu.Unlock()
	payload, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("wal: snapshot encode: %w", err)
	}
	return j.landSnapshot(seg, payload)
}

// landSnapshot durably writes payload as the snapshot named seg —
// the owner's state with every record of segments < seg applied, so
// seg is the number rotate returned — and then prunes the segments and
// snapshots it covers. The mid-snapshot crash point fires after
// roughly half the payload reaches the temp file (no rename: the
// snapshot must not become visible); the journal then dies and
// landSnapshot returns ErrCrashed.
func (j *Journal) landSnapshot(seg uint64, payload []byte) error {
	t0 := time.Now()
	if err := j.writeSnapshot(seg, payload); err != nil {
		return err
	}
	j.lastSnap.Store(seg)
	j.snapBytes.Store(int64(len(payload)))
	j.snapshots.Add(1)
	pruneBefore(j.dir, seg)
	j.opts.SnapshotHist.ObserveSince(t0)
	return nil
}

func (j *Journal) writeSnapshot(seg uint64, payload []byte) error {
	dir := j.dir
	final := filepath.Join(dir, snapName(seg))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [16]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, crcTable))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := j.Crash(CrashMidSnapshot); err != nil {
		// Simulated death mid-write: half the payload lands in the temp
		// file and the process is gone — no fsync, no rename.
		_, _ = f.Write(payload[:len(payload)/2])
		_ = f.Close()
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(dir)
	return nil
}

// readSnapshot loads and validates the snapshot named seg.
func readSnapshot(dir string, seg uint64) ([]byte, error) {
	path := filepath.Join(dir, snapName(seg))
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 16 || string(raw[:8]) != snapMagic {
		return nil, fmt.Errorf("wal: %s: bad snapshot header", filepath.Base(path))
	}
	n := binary.LittleEndian.Uint32(raw[8:12])
	sum := binary.LittleEndian.Uint32(raw[12:16])
	if int(n) != len(raw)-16 {
		return nil, fmt.Errorf("wal: %s: snapshot length %d, want %d", filepath.Base(path), len(raw)-16, n)
	}
	payload := raw[16:]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("wal: %s: snapshot checksum mismatch", filepath.Base(path))
	}
	return payload, nil
}

// pruneBefore removes segments and snapshots older than seg — called
// after a snapshot named seg lands, since everything it covers is
// redundant. Best-effort: removal failures are ignored (recovery
// tolerates stale files).
func pruneBefore(dir string, seg uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		var n uint64
		name := e.Name()
		switch {
		case parseName(name, "journal-", ".wal", &n) && n < seg:
			_ = os.Remove(filepath.Join(dir, name))
		case parseName(name, "snapshot-", ".snap", &n) && n < seg:
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// parseName matches prefix+digits+suffix, extracting the number.
func parseName(name, prefix, suffix string, out *uint64) bool {
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var n uint64
	for i := 0; i < len(mid); i++ {
		c := mid[i]
		if c < '0' || c > '9' {
			return false
		}
		n = n*10 + uint64(c-'0')
	}
	*out = n
	return true
}
