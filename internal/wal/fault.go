package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// CrashPoint names a place in the durability pipeline where the
// fault-injection harness can simulate process death. The journal
// consults the armed Injector at each point (Journal.Crash); a fired
// point kills the journal so every later operation returns ErrCrashed,
// and the test then recovers the directory into a fresh engine.
type CrashPoint string

// The named crash points of the kill-restart-verify suite.
const (
	// CrashPreAppend fires before the operation's record is handed to
	// the journal: the op must be absent after recovery.
	CrashPreAppend CrashPoint = "pre-append"
	// CrashPostAppend fires after the record is in the journal's batch
	// but before the owner's in-memory ledger applies it: recovery must
	// replay the record (if its batch reached disk) exactly once.
	CrashPostAppend CrashPoint = "post-append-pre-apply"
	// CrashMidSnapshot fires inside Journal.Snapshot after a partial
	// payload is written to the temp file: recovery must fall back to
	// the previous snapshot and the longer tail.
	CrashMidSnapshot CrashPoint = "mid-snapshot"
	// CrashMidCompensate fires inside relay recovery between
	// compensating one in-doubt trip and the next: a second recovery
	// must finish the job without double-cancelling.
	CrashMidCompensate CrashPoint = "mid-compensate"
)

// crashTornWrite is the flusher's point, armed by ArmTornWrite.
const crashTornWrite CrashPoint = "torn-write"

// Injector arms simulated crashes. The zero value (and a nil pointer)
// is inert; production code paths pay one nil check per consultation.
// It reaches journals through ArmDir, never through a config: the
// journals opened under its directory are one simulated process, and
// one fired fault (or Kill) kills them all.
type Injector struct {
	mu       sync.Mutex
	point    CrashPoint
	after    int // fire on the (after+1)-th Fire of point
	armed    bool
	tornKeep int
	fired    bool
	journals []*Journal // opened under the injector's directory
}

// armedDirs maps a directory to the injector ArmDir armed on it.
var armedDirs = struct {
	sync.Mutex
	m map[string]*Injector
}{m: map[string]*Injector{}}

// ArmDir arms inj on dir and everything beneath it: every journal
// opened there until disarm is called belongs to inj, and keeps it for
// life (a nil inj arms nothing; paths match after filepath.Clean). A
// test hook: the crash harness arms a directory before it builds the
// engines or routers journaling there.
func ArmDir(dir string, inj *Injector) (disarm func()) {
	if inj == nil {
		return func() {}
	}
	key := filepath.Clean(dir)
	armedDirs.Lock()
	armedDirs.m[key] = inj
	armedDirs.Unlock()
	return func() {
		armedDirs.Lock()
		delete(armedDirs.m, key)
		armedDirs.Unlock()
	}
}

// arm hands a journal Open is creating the injector armed on its
// directory or nearest armed parent, and records it there. With
// nothing armed it costs one lock.
func arm(j *Journal) {
	armedDirs.Lock()
	defer armedDirs.Unlock()
	if len(armedDirs.m) == 0 {
		return
	}
	for d := filepath.Clean(j.dir); ; d = filepath.Dir(d) {
		if inj := armedDirs.m[d]; inj != nil {
			inj.mu.Lock()
			j.inj, inj.journals = inj, append(inj.journals, j)
			inj.mu.Unlock()
			return
		}
		if d == filepath.Dir(d) {
			return
		}
	}
}

// Kill kills every journal opened under the injector — the simulated
// death of the whole process, on demand. It must not be called with a
// journal's lock held.
func (i *Injector) Kill() {
	i.mu.Lock()
	js := i.journals
	i.mu.Unlock()
	for _, j := range js {
		j.Kill()
	}
}

// Arm schedules the injector to fire at the (after+1)-th consultation
// of point (after=0 → first). Re-arming resets any previous fault.
func (i *Injector) Arm(point CrashPoint, after int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.point, i.after, i.armed, i.fired = point, after, true, false
}

// ArmTornWrite schedules the next journal flush to crash after writing
// only keepBytes of the batch (clamped to the batch size), leaving a
// torn record on disk. It replaces any armed point.
func (i *Injector) ArmTornWrite(keepBytes int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.point, i.after, i.armed, i.fired, i.tornKeep = crashTornWrite, 0, true, false, keepBytes
}

// Fire consults the injector at a crash point, returning true when the
// armed fault fires — after killing every journal opened under the
// injector. Nil-safe.
func (i *Injector) Fire(point CrashPoint) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	hit := i.armed && i.point == point
	if hit && i.after > 0 {
		i.after, hit = i.after-1, false
	} else if hit {
		i.armed, i.fired = false, true
	}
	i.mu.Unlock()
	if hit {
		i.Kill()
	}
	return hit
}

// tornWrite is the flusher's consultation: (keepBytes, true) when a
// torn-write fault fired. Nil-safe.
func (i *Injector) tornWrite(batchLen int) (int, bool) {
	if !i.Fire(crashTornWrite) {
		return 0, false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return min(i.tornKeep, batchLen), true
}

// Fired reports whether any armed fault has fired since the last Arm.
func (i *Injector) Fired() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired
}

// TruncateTail chops n bytes off the end of the newest journal segment
// in dir — post-hoc corruption for recovery tests.
func TruncateTail(dir string, n int64) error {
	seg, path, err := newestSegment(dir)
	if err != nil {
		return err
	}
	if seg == 0 {
		return fmt.Errorf("wal: no segments in %s", dir)
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := st.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// FlipByte XOR-flips the byte at offset (negative → from the end) of
// the newest journal segment in dir — checksum-corruption for recovery
// tests.
func FlipByte(dir string, offset int64) error {
	seg, path, err := newestSegment(dir)
	if err != nil {
		return err
	}
	if seg == 0 {
		return fmt.Errorf("wal: no segments in %s", dir)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if offset < 0 {
		offset += st.Size()
	}
	if offset < 0 || offset >= st.Size() {
		return fmt.Errorf("wal: flip offset %d out of range [0,%d)", offset, st.Size())
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		return err
	}
	b[0] ^= 0xFF
	_, err = f.WriteAt(b[:], offset)
	return err
}
