// Package wal is PTRider's write-ahead event journal: a length-prefixed,
// CRC32-checksummed append-only log of engine state mutations, plus
// atomically-written snapshot files, so a city shard can crash and
// restart without losing its ledger (ROADMAP: horizontal scale-out).
//
// # Layout
//
// A journal directory holds numbered segments and snapshots:
//
//	journal-00000001.wal   records appended since snapshot 1 (or genesis)
//	snapshot-00000003.snap engine state before segment 3's first record
//	journal-00000003.wal   the live tail
//
// Each segment starts with an 8-byte magic and then holds records of
// the form ⟨uint32 length | uint32 CRC32C(payload) | payload⟩, both
// little-endian (CRC32C — the Castagnoli polynomial — is hardware-
// accelerated on the platforms this runs on). The payload is opaque to
// this package — the engine journals operation outcomes in its own
// binary record codec. A snapshot named K captures
// the state with every record of segments < K applied; recovery loads
// the newest valid snapshot and replays the segments ≥ K in order.
//
// # Group commit
//
// Append never performs I/O itself: it encodes the record into the
// current in-memory batch under a short lock and signals the single
// flusher goroutine, which writes and fsyncs whole batches. In Sync
// mode the returned Commit waits for the batch's fsync (many concurrent
// appenders share one fsync — the group commit); in Async mode the
// caller proceeds immediately and the tail since the last flush is the
// crash-loss window. Async batches are still written promptly, but
// their fsyncs are paced to one per asyncSyncInterval — the loss
// window is time-bounded anyway, so per-batch device syncs would buy
// nothing and cost a core.
//
// Appends are not internally ordered against each other: the caller
// must serialise Append calls that need a defined journal order (the
// engine appends under its ledger lock, which is also what makes the
// journal order the ledger linearisation). Rotate assumes no
// concurrent appends for the same reason.
//
// # Lifecycle
//
// A journal's owner (the city engine, the relay scheduler) keeps only
// its record codec, its restore/replay/capture code and its locks; the
// lifecycle is here. Open recovers the directory into the owner through
// two callbacks and then opens it for appending; WriteSnapshot lands a
// snapshot beside a rotated segment and prunes what it covers; Close
// and Kill end it.
//
// The journal is fail-stop: a failed batch write or fsync kills it like
// an injected crash does. The batch's waiters get the error, every
// later Append returns ErrCrashed, and the disk keeps exactly the
// records acknowledged before the failure — so recovery never truncates
// at a tear that acknowledged records were appended after.
//
// # Crash simulation
//
// The package doubles as its own fault-injection harness: ArmDir arms
// an Injector on a directory, whose journals then form one simulated
// process. Append fires the pre-append and post-append crash points
// around every record, WriteSnapshot the mid-snapshot point, the
// flusher the torn-write fault, and relay recovery the mid-compensate
// point through Crash. A fired fault (or Injector.Kill) kills every
// journal of the process — later operations fail with ErrCrashed,
// with whatever bytes made it to disk — and tests recover the
// directory into a fresh engine and verify equivalence.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ptrider/internal/telemetry"
)

// crcTable is the record checksum polynomial (CRC32C / Castagnoli,
// hardware-accelerated where the CPU supports it).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Mode selects the append durability contract.
type Mode int

// Durability modes. Off exists so callers can thread one knob through;
// a journal is only ever created in Async or Sync mode.
const (
	// ModeOff disables journaling entirely (no Journal is created).
	ModeOff Mode = iota
	// ModeAsync acknowledges appends before they are on disk; the tail
	// since the last flushed batch is the crash-loss window.
	ModeAsync
	// ModeSync makes Commit.Wait block until the record's batch is
	// fsynced — group commit amortises the fsync across concurrent
	// appenders.
	ModeSync
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeAsync:
		return "async"
	case ModeSync:
		return "sync"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode maps a flag value to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "":
		return ModeOff, nil
	case "async":
		return ModeAsync, nil
	case "sync":
		return ModeSync, nil
	}
	return 0, fmt.Errorf("wal: unknown durability mode %q", s)
}

// Errors of the journal lifecycle.
var (
	// ErrCrashed reports a dead journal — killed (an injected fault,
	// Kill) or fail-stopped by a write or fsync error: the process is
	// dead; recover the directory into a fresh instance.
	ErrCrashed = errors.New("wal: journal crashed")
	// ErrClosed reports an operation on a cleanly closed journal.
	ErrClosed = errors.New("wal: journal closed")
)

const (
	segMagic  = "PTWALSG1"
	snapMagic = "PTWALSN1"
	// maxRecord bounds a single record payload; a longer length prefix
	// is treated as corruption.
	maxRecord = 1 << 28
)

// segName/snapName build the numbered file names.
func segName(seg uint64) string  { return fmt.Sprintf("journal-%08d.wal", seg) }
func snapName(seg uint64) string { return fmt.Sprintf("snapshot-%08d.snap", seg) }

// Options parameterises Open.
type Options struct {
	// Mode must be ModeAsync or ModeSync.
	Mode Mode
	// AppendHist / FsyncHist, when non-nil, observe batch-write and
	// fsync wall times (seconds). Nil histograms are no-ops, so the
	// flusher records unconditionally.
	AppendHist *telemetry.LatencyHist
	FsyncHist  *telemetry.LatencyHist
}

// batch is one group-commit unit: records accumulated since the last
// flush, plus the completion signal its Sync-mode appenders wait on.
type batch struct {
	buf  []byte
	n    int
	done chan struct{}
	err  error
}

func newBatch() *batch { return &batch{done: make(chan struct{})} }

// spareCap bounds the recycled batch buffer: a rare huge batch should
// not pin its allocation for the journal's lifetime.
const spareCap = 1 << 20

// asyncSyncInterval paces fsyncs in Async mode: batches are written as
// they fill, but the device sync happens at most this often. Async's
// contract is already "the unflushed tail may be lost", so the pacing
// only time-bounds that window; Sync() and Close still force a real
// fsync at durability boundaries (rotation, snapshots, shutdown).
const asyncSyncInterval = 50 * time.Millisecond

// newBatchLocked builds the next accumulating batch, reusing the last
// flushed batch's buffer when one is parked. Caller holds j.mu.
func (j *Journal) newBatchLocked() *batch {
	b := newBatch()
	if j.spare != nil {
		b.buf, j.spare = j.spare, nil
	}
	return b
}

// Journal is an append-only segmented record log with group commit.
// Append may be called concurrently; Rotate, Sync and Close require
// that no appends are in flight (the engine guarantees this by
// appending only under its ledger lock).
type Journal struct {
	dir  string
	opts Options
	inj  *Injector // armed on dir when Open ran (ArmDir); nil in production

	mu       sync.Mutex
	cur      *batch // accumulating batch
	flushing *batch // batch being written, nil between flushes
	spare    []byte // recycled batch buffer (appends run at disk rate)
	f        *os.File
	seg      uint64
	closed   bool
	// dead holds the cause of death (see Err), nil while alive. It is
	// set once, under mu (so the accumulating batch and the flag change
	// together), and read without it: Err is on every submit's path.
	dead atomic.Pointer[error]

	kick chan struct{}
	stop chan struct{}
	exit chan struct{}

	// lastSync is the flusher's async fsync pacing clock (flusher-only;
	// read by nothing else, so it needs no lock).
	lastSync time.Time

	records atomic.Int64
	bytes   atomic.Int64
	batches atomic.Int64
	fsyncs  atomic.Int64
	fsyncNs atomic.Int64
	maxN    atomic.Int64

	// Snapshot bookkeeping (WriteSnapshot) and the summary of the
	// recovery Open ran, for the owners' stats panels.
	snapshots atomic.Int64
	lastSnap  atomic.Uint64
	recovery  Recovery
}

// Recovery summarises what Open recovered from the directory.
type Recovery struct {
	// Recovered is true when a snapshot or at least one record was
	// found: the owner's state came from disk.
	Recovered bool `json:"recovered"`
	// Records counts the tail records replayed.
	Records int `json:"records"`
	// TruncatedBytes, DroppedSegments and CorruptSnapshots are the
	// damage Recover repaired.
	TruncatedBytes   int64 `json:"truncated_bytes"`
	DroppedSegments  int   `json:"dropped_segments"`
	CorruptSnapshots int   `json:"corrupt_snapshots"`
}

// Open recovers dir into the journal's owner and opens it for
// appending: Recover scans it, restore receives the newest valid
// snapshot (when there is one), replay receives every tail record in
// append order, and the journal then appends to a fresh segment. A
// callback's error aborts the open, wrapped with the snapshot's
// segment or the record's ordinal. An open that restored a snapshot,
// replayed records or repaired damage logs one "wal: recovered" line
// saying what it found; a fresh directory logs nothing.
func Open(dir string, opts Options, restore, replay func(payload []byte) error) (*Journal, error) {
	if opts.Mode != ModeAsync && opts.Mode != ModeSync {
		return nil, fmt.Errorf("wal: open with mode %v", opts.Mode)
	}
	start := time.Now()
	rec, err := Recover(dir)
	if err != nil {
		return nil, err
	}
	if rec.Snapshot != nil {
		if err := restore(rec.Snapshot); err != nil {
			return nil, fmt.Errorf("wal: snapshot %d: %w", rec.SnapshotSeg, err)
		}
	}
	for i, payload := range rec.Records {
		if err := replay(payload); err != nil {
			return nil, fmt.Errorf("wal: replay record %d/%d: %w", i+1, len(rec.Records), err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f, err := openSegment(dir, rec.NextSeg)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		dir:      dir,
		opts:     opts,
		cur:      newBatch(),
		f:        f,
		seg:      rec.NextSeg,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		exit:     make(chan struct{}),
		lastSync: time.Now(),
		recovery: Recovery{
			Recovered:        rec.Snapshot != nil || len(rec.Records) > 0,
			Records:          len(rec.Records),
			TruncatedBytes:   rec.TruncatedBytes,
			DroppedSegments:  rec.DroppedSegments,
			CorruptSnapshots: rec.CorruptSnapshots,
		},
	}
	j.lastSnap.Store(rec.SnapshotSeg)
	if r := j.recovery; r.Recovered || r.TruncatedBytes > 0 || r.DroppedSegments > 0 || r.CorruptSnapshots > 0 {
		slog.Info("wal: recovered", "dir", dir, "snapshot_seg", rec.SnapshotSeg, "records", r.Records,
			"truncated_bytes", r.TruncatedBytes, "dropped_segments", r.DroppedSegments,
			"corrupt_snapshots", r.CorruptSnapshots, "duration", time.Since(start))
	}
	arm(j)
	go j.flusher()
	return j, nil
}

// openSegment opens segment seg for appending, stamping the magic into
// a fresh file.
func openSegment(dir string, seg uint64) (*os.File, error) {
	path := filepath.Join(dir, segName(seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(segMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		syncDir(dir)
	}
	return f, nil
}

// syncDir fsyncs a directory so renames and creations are durable.
// Best-effort: some platforms refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Commit is an Append's durability handle: Wait blocks until the
// record's batch is on disk (Sync mode) or returns immediately (Async
// mode, or the zero Commit).
type Commit struct{ b *batch }

// Wait blocks until the record's group-commit batch completed and
// returns its flush error. Safe to call on the zero value.
func (c Commit) Wait() error {
	if c.b == nil {
		return nil
	}
	<-c.b.done
	return c.b.err
}

// Crash consults the injector armed on the journal's directory at
// point p. When the point fires, every journal of the simulated process
// dies (this one included) and Crash returns ErrCrashed; otherwise nil.
// It must not be called with j.mu held.
func (j *Journal) Crash(p CrashPoint) error {
	if !j.inj.Fire(p) {
		return nil
	}
	return ErrCrashed
}

// Append encodes one record into the current group-commit batch and
// signals the flusher. It never blocks on I/O; in Sync mode the caller
// waits on the returned Commit after releasing its own locks. The two
// operation-level crash points fire here: pre-append (the record must
// be absent after recovery) and post-append (the record is in the
// batch; recovery applies it exactly once if it reached disk).
func (j *Journal) Append(payload []byte) (Commit, error) {
	if err := j.Crash(CrashPreAppend); err != nil {
		return Commit{}, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	j.mu.Lock()
	if j.dead.Load() != nil {
		j.mu.Unlock()
		return Commit{}, ErrCrashed
	}
	if j.closed {
		j.mu.Unlock()
		return Commit{}, ErrClosed
	}
	b := j.cur
	b.buf = append(b.buf, hdr[:]...)
	b.buf = append(b.buf, payload...)
	b.n++
	j.mu.Unlock()

	j.records.Add(1)
	j.bytes.Add(int64(len(payload) + 8))
	select {
	case j.kick <- struct{}{}:
	default:
	}
	if err := j.Crash(CrashPostAppend); err != nil {
		return Commit{}, err
	}
	if j.opts.Mode == ModeSync {
		return Commit{b: b}, nil
	}
	return Commit{}, nil
}

// flusher is the single group-commit goroutine: it swaps the
// accumulating batch out under the lock, writes and fsyncs it, and
// completes its waiters.
func (j *Journal) flusher() {
	defer close(j.exit)
	for {
		select {
		case <-j.kick:
			j.flushOnce()
		case <-j.stop:
			j.flushOnce()
			return
		}
	}
}

// flushOnce writes the accumulated batch, if any.
func (j *Journal) flushOnce() {
	j.mu.Lock()
	b := j.cur
	if len(b.buf) == 0 || j.dead.Load() != nil {
		j.mu.Unlock()
		return
	}
	j.cur = j.newBatchLocked()
	j.flushing = b
	f := j.f
	j.mu.Unlock()

	if keep, torn := j.inj.tornWrite(len(b.buf)); torn {
		// Simulated crash mid-write: a prefix of the batch lands, no
		// fsync, and the journal dies with the partial record on disk.
		_, _ = f.Write(b.buf[:keep])
		j.fail(b, ErrCrashed)
		return
	}

	w0 := time.Now()
	_, err := f.Write(b.buf)
	j.opts.AppendHist.ObserveSince(w0)
	if err == nil &&
		(j.opts.Mode == ModeSync || time.Since(j.lastSync) >= asyncSyncInterval) {
		t0 := time.Now()
		err = f.Sync()
		j.lastSync = time.Now()
		j.fsyncNs.Add(time.Since(t0).Nanoseconds())
		j.fsyncs.Add(1)
		j.opts.FsyncHist.ObserveSince(t0)
	}
	if err != nil {
		err = fmt.Errorf("wal: flush: %w", err)
		// An async append has no waiter to hand this cause to.
		slog.Error("wal: journal fail-stop", "dir", j.dir, "err", err)
		j.fail(b, err)
		return
	}
	j.batches.Add(1)
	if n := int64(b.n); n > j.maxN.Load() {
		j.maxN.Store(n) // single flusher: load/store does not race
	}
	j.mu.Lock()
	j.flushing = nil
	if cap(b.buf) <= spareCap {
		j.spare = b.buf[:0] // written out; recycle for the next batch
	}
	j.mu.Unlock()
	close(b.done)
}

// fail kills the journal after the flush of b failed: b's waiters get
// err, the batch accumulating behind it fails with ErrCrashed, and
// every later Append is refused. dead is set before any waiter is
// released, so a caller that sees the error also sees Err. Nothing
// after b reaches the segment, which therefore ends with the last
// acknowledged batch (or the torn prefix an injected fault wrote).
func (j *Journal) fail(b *batch, err error) {
	j.mu.Lock()
	j.dieLocked(err)
	j.flushing = nil
	dying := j.cur
	j.cur = newBatch()
	j.mu.Unlock()
	b.err = err
	close(b.done)
	if dying.n > 0 {
		dying.err = ErrCrashed
		close(dying.done)
	}
}

// Sync flushes every appended record and waits for its fsync.
func (j *Journal) Sync() error {
	j.mu.Lock()
	if j.dead.Load() != nil {
		j.mu.Unlock()
		return ErrCrashed
	}
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	var b *batch
	if len(j.cur.buf) > 0 {
		b = j.cur
	} else {
		b = j.flushing
	}
	j.mu.Unlock()
	if b != nil {
		select {
		case j.kick <- struct{}{}:
		default:
		}
		<-b.done
		if b.err != nil {
			return b.err
		}
	}
	// Async pacing may have skipped the last batches' device sync, but
	// Sync promises a real fsync in every mode (rotation and snapshot
	// boundaries depend on it).
	if j.opts.Mode == ModeAsync {
		j.mu.Lock()
		if j.dead.Load() != nil {
			j.mu.Unlock()
			return ErrCrashed
		}
		f := j.f
		j.mu.Unlock()
		if err := f.Sync(); err != nil {
			// Fail-stop as the flusher does (no append is in flight).
			err = fmt.Errorf("wal: fsync: %w", err)
			j.mu.Lock()
			j.dieLocked(err)
			j.mu.Unlock()
			return err
		}
	}
	return nil
}

// Segment returns the segment currently being appended to.
func (j *Journal) Segment() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seg
}

// Rotate flushes the current segment and starts the next one, returning
// its number. The caller must guarantee no concurrent appends (the
// engine holds its ledger lock); a snapshot named with the returned
// number captures the state with everything before it applied.
func (j *Journal) Rotate() (uint64, error) {
	if err := j.Sync(); err != nil {
		return 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead.Load() != nil {
		return 0, ErrCrashed
	}
	if j.closed {
		return 0, ErrClosed
	}
	seg := j.seg + 1
	f, err := openSegment(j.dir, seg)
	if err != nil {
		return 0, err
	}
	_ = j.f.Sync()
	_ = j.f.Close()
	j.f = f
	j.seg = seg
	return seg, nil
}

// Kill marks the journal dead without flushing — the simulated process
// death used by the crash harness. Waiters of the accumulating batch
// fail with ErrCrashed; a batch already being flushed completes
// normally (a real crash can land just after an fsync too).
func (j *Journal) Kill() {
	j.mu.Lock()
	if j.dead.Load() != nil || j.closed {
		j.mu.Unlock()
		return
	}
	j.dieLocked(ErrCrashed)
	b := j.cur
	j.cur = newBatch()
	j.mu.Unlock()
	if b.n > 0 {
		b.err = ErrCrashed
		close(b.done)
	}
}

// dieLocked marks the journal dead, recording why the first time.
// Caller holds j.mu.
func (j *Journal) dieLocked(cause error) {
	if cause != ErrCrashed {
		cause = fmt.Errorf("%w: %w", ErrCrashed, cause)
	}
	j.dead.CompareAndSwap(nil, &cause)
}

// Err is nil while the journal is alive. After a kill it is
// ErrCrashed; after a fail-stop it is ErrCrashed wrapping the write or
// fsync error that stopped it. It takes no lock and does not allocate.
func (j *Journal) Err() error {
	if p := j.dead.Load(); p != nil {
		return *p
	}
	return nil
}

// Close flushes, fsyncs and closes the journal. A killed journal
// closes its file without flushing.
func (j *Journal) Close() error {
	serr := j.Sync()
	if serr == ErrCrashed {
		serr = nil // dead journals close silently; the crash already surfaced
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	f := j.f
	j.mu.Unlock()
	close(j.stop)
	<-j.exit
	if f != nil {
		_ = f.Sync()
		if err := f.Close(); err != nil && serr == nil {
			serr = err
		}
	}
	return serr
}

// Stats is the journal's observability panel.
type Stats struct {
	// Records and Bytes count everything appended (headers included in
	// Bytes).
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Batches and Fsyncs count group-commit flushes; MaxBatch is the
	// largest record count one flush carried (the group-commit win).
	Batches  int64 `json:"batches"`
	Fsyncs   int64 `json:"fsyncs"`
	MaxBatch int64 `json:"max_batch"`
	// AvgFsyncMicros is the mean fsync latency.
	AvgFsyncMicros float64 `json:"avg_fsync_micros"`
	// Segment is the live tail segment number.
	Segment uint64 `json:"segment"`
	// Snapshots counts snapshots written since Open; LastSnapshotSeg
	// names the newest one on disk (0 = none).
	Snapshots       int64  `json:"snapshots"`
	LastSnapshotSeg uint64 `json:"last_snapshot_seg"`
	// Recovery is what Open recovered.
	Recovery Recovery `json:"recovery"`
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() Stats {
	s := Stats{
		Records:  j.records.Load(),
		Bytes:    j.bytes.Load(),
		Batches:  j.batches.Load(),
		Fsyncs:   j.fsyncs.Load(),
		MaxBatch: j.maxN.Load(),
		Segment:  j.Segment(),

		Snapshots:       j.snapshots.Load(),
		LastSnapshotSeg: j.lastSnap.Load(),
		Recovery:        j.recovery,
	}
	if s.Fsyncs > 0 {
		s.AvgFsyncMicros = float64(j.fsyncNs.Load()) / float64(s.Fsyncs) / 1e3
	}
	return s
}
