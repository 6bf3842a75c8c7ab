package wal

import (
	"fmt"
	"os"
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
	// CrashMidSnapshot fires inside Journal.WriteSnapshot after a partial
	// payload is written to the temp file: recovery must fall back to
	// the previous snapshot and the longer tail.
	CrashMidSnapshot CrashPoint = "mid-snapshot"
	// CrashMidCompensate fires inside relay recovery between
	// compensating one in-doubt trip and the next: a second recovery
	// must finish the job without double-cancelling.
	CrashMidCompensate CrashPoint = "mid-compensate"
)

// CrashPoints lists every named point, for harness loops.
var CrashPoints = []CrashPoint{CrashPreAppend, CrashPostAppend, CrashMidSnapshot, CrashMidCompensate}

// Injector arms simulated crashes. The zero value (and a nil pointer)
// is inert; production code paths pay one nil check per consultation.
// An injector is shared across the engines/journals of one simulated
// process, so one armed fault kills everything at once.
type Injector struct {
	mu       sync.Mutex
	point    CrashPoint
	after    int // fire on the (after+1)-th Fire of point
	armed    bool
	tornKeep int
	tornArm  bool
	fired    bool

	// onFire, when set, is invoked once when any fault fires — the
	// multi-city router hooks this to kill every journal it hosts.
	onFire func()
}

// Arm schedules the injector to fire at the (after+1)-th consultation
// of point (after=0 → first). Re-arming resets any previous fault.
func (i *Injector) Arm(point CrashPoint, after int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.point, i.after, i.armed, i.fired = point, after, true, false
	i.tornArm = false
}

// ArmTornWrite schedules the next journal flush to crash after writing
// only keepBytes of the batch (clamped to the batch size), leaving a
// torn record on disk.
func (i *Injector) ArmTornWrite(keepBytes int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.tornKeep, i.tornArm, i.fired = keepBytes, true, false
	i.armed = false
}

// OnFire registers a hook invoked (once, outside the injector lock)
// when any fault fires.
func (i *Injector) OnFire(f func()) {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.onFire = f
}

// Fire consults the injector at a crash point, returning true when the
// armed fault fires. Nil-safe.
func (i *Injector) Fire(point CrashPoint) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	if !i.armed || i.point != point {
		i.mu.Unlock()
		return false
	}
	if i.after > 0 {
		i.after--
		i.mu.Unlock()
		return false
	}
	i.armed = false
	i.fired = true
	hook := i.onFire
	i.mu.Unlock()
	if hook != nil {
		hook()
	}
	return true
}

// tornWrite is the flusher's consultation: (keepBytes, true) when a
// torn-write fault is armed. Nil-safe.
func (i *Injector) tornWrite(batchLen int) (int, bool) {
	if i == nil {
		return 0, false
	}
	i.mu.Lock()
	if !i.tornArm {
		i.mu.Unlock()
		return 0, false
	}
	i.tornArm = false
	i.fired = true
	keep := i.tornKeep
	if keep > batchLen {
		keep = batchLen
	}
	hook := i.onFire
	i.mu.Unlock()
	if hook != nil {
		hook()
	}
	return keep, true
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
