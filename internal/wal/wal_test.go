package wal

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ptrider/internal/testnet"
)

// ignore is a restore/replay callback for tests that read the
// recovered records with Recover instead.
func ignore([]byte) error { return nil }

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts, ignore, ignore)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

func appendAll(t *testing.T, j *Journal, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		c, err := j.Append([]byte(p))
		if err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("Wait(%q): %v", p, err)
		}
	}
}

func recovered(t *testing.T, dir string) *Recovered {
	t.Helper()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return rec
}

func recordStrings(rec *Recovered) []string {
	out := make([]string, len(rec.Records))
	for i, r := range rec.Records {
		out[i] = string(r)
	}
	return out
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	appendAll(t, j, "alpha", "beta", "gamma")
	if err := j.Close(nil, nil); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec := recovered(t, dir)
	want := []string{"alpha", "beta", "gamma"}
	got := recordStrings(rec)
	if len(got) != len(want) {
		t.Fatalf("records = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("records = %v, want %v", got, want)
		}
	}
	if rec.NextSeg != 2 {
		t.Fatalf("NextSeg = %d, want 2", rec.NextSeg)
	}
	if rec.TruncatedBytes != 0 || rec.CorruptSnapshots != 0 || rec.DroppedSegments != 0 {
		t.Fatalf("clean recovery reported damage: %+v", rec)
	}

	// Reopen — Open recovers and appends to NextSeg — and keep
	// appending.
	var replayed []string
	j2, err := Open(dir, Options{Mode: ModeSync}, ignore, func(p []byte) error {
		replayed = append(replayed, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if strings.Join(replayed, ",") != "alpha,beta,gamma" {
		t.Fatalf("replayed %v", replayed)
	}
	if st := j2.Stats(); st.Segment != rec.NextSeg || st.Recovery != (Recovery{Recovered: true, Records: 3}) {
		t.Fatalf("reopened journal: segment %d (want %d), recovery %+v", st.Segment, rec.NextSeg, st.Recovery)
	}
	appendAll(t, j2, "delta")
	if err := j2.Close(nil, nil); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec2 := recovered(t, dir)
	if got := recordStrings(rec2); len(got) != 4 || got[3] != "delta" {
		t.Fatalf("records after reopen = %v", got)
	}
}

func TestGroupCommitConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := j.Append([]byte(fmt.Sprintf("rec-%02d", i)))
			if err != nil {
				t.Errorf("Append: %v", err)
				return
			}
			if err := c.Wait(); err != nil {
				t.Errorf("Wait: %v", err)
			}
		}(i)
	}
	wg.Wait()
	st := j.Stats()
	if err := j.Close(nil, nil); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st.Records != n {
		t.Fatalf("Records = %d, want %d", st.Records, n)
	}
	// Group commit must have amortised: strictly fewer fsyncs than
	// records would be flaky on a fast disk, but the batching machinery
	// at least must report its flushes.
	if st.Batches == 0 || st.Batches > st.Records {
		t.Fatalf("Batches = %d (records %d)", st.Batches, st.Records)
	}
	rec := recovered(t, dir)
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
	seen := map[string]bool{}
	for _, r := range rec.Records {
		seen[string(r)] = true
	}
	if len(seen) != n {
		t.Fatalf("recovered %d distinct records, want %d", len(seen), n)
	}
}

func TestRotateSnapshotPrune(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	appendAll(t, j, "old-1", "old-2")
	seg, err := j.rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if seg != 2 {
		t.Fatalf("rotate → %d, want 2", seg)
	}
	if err := j.landSnapshot(seg, []byte("STATE-AFTER-OLD")); err != nil {
		t.Fatalf("landSnapshot: %v", err)
	}
	if st := j.Stats(); st.Snapshots != 1 || st.LastSnapshotSeg != seg {
		t.Fatalf("snapshot stats: %d snapshots, newest %d", st.Snapshots, st.LastSnapshotSeg)
	}
	appendAll(t, j, "new-1")
	if err := j.Close(nil, nil); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 not pruned: %v", err)
	}
	rec := recovered(t, dir)
	if rec.SnapshotSeg != 2 || string(rec.Snapshot) != "STATE-AFTER-OLD" {
		t.Fatalf("snapshot = seg %d %q", rec.SnapshotSeg, rec.Snapshot)
	}
	if got := recordStrings(rec); len(got) != 1 || got[0] != "new-1" {
		t.Fatalf("tail records = %v, want [new-1]", got)
	}
	if rec.NextSeg != 3 {
		t.Fatalf("NextSeg = %d, want 3", rec.NextSeg)
	}
}

func TestTornWriteInjection(t *testing.T) {
	logged := testnet.CaptureLog(t)
	dir := t.TempDir()
	inj := &Injector{}
	t.Cleanup(ArmDir(dir, inj))
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	appendAll(t, j, "solid-1", "solid-2")

	// Tear the next batch: keep the full first record plus 3 bytes of
	// the second record's header.
	inj.ArmTornWrite(8 + len("torn-a") + 3)
	release := j.holdFlusher()
	c1, err := j.Append([]byte("torn-a"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	c2, err := j.Append([]byte("torn-b"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	release()
	if err := c1.Wait(); err != ErrCrashed {
		t.Fatalf("torn batch Wait = %v, want ErrCrashed", err)
	}
	if err := c2.Wait(); err != ErrCrashed {
		t.Fatalf("torn batch Wait = %v, want ErrCrashed", err)
	}
	if j.Err() == nil {
		t.Fatal("journal should be dead after torn write")
	}
	if _, err := j.Append([]byte("after-death")); err != ErrCrashed {
		t.Fatalf("Append after death = %v, want ErrCrashed", err)
	}
	_ = j.Close(nil, nil)
	if recs := logged.Lines(); len(recs) != 0 {
		t.Fatalf("an injected torn write logged %d records, want none: %q", len(recs), recs[0].Message)
	}

	rec := recovered(t, dir)
	got := recordStrings(rec)
	want := []string{"solid-1", "solid-2", "torn-a"}
	if len(got) != len(want) {
		t.Fatalf("records = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("records = %v, want %v", got, want)
		}
	}
	if rec.TruncatedBytes != 3 {
		t.Fatalf("TruncatedBytes = %d, want 3", rec.TruncatedBytes)
	}
	// Recovery truncated the tear: a second recovery is clean.
	rec2 := recovered(t, dir)
	if rec2.TruncatedBytes != 0 || len(rec2.Records) != 3 {
		t.Fatalf("second recovery: %+v", rec2)
	}
}

func TestTruncatedTailAndFlippedByte(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	appendAll(t, j, "keep-1", "keep-2", "victim")
	if err := j.Close(nil, nil); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if err := TruncateTail(dir, 2); err != nil {
		t.Fatalf("TruncateTail: %v", err)
	}
	rec := recovered(t, dir)
	if got := recordStrings(rec); len(got) != 2 || got[1] != "keep-2" {
		t.Fatalf("after truncate: records = %v", got)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("truncation not reported")
	}

	// Now flip a byte inside keep-2's payload: it and everything after
	// must vanish, keep-1 survives.
	if err := FlipByte(dir, -1); err != nil {
		t.Fatalf("FlipByte: %v", err)
	}
	rec2 := recovered(t, dir)
	if got := recordStrings(rec2); len(got) != 1 || got[0] != "keep-1" {
		t.Fatalf("after flip: records = %v", got)
	}
}

func TestCorruptSnapshotFallsBackOlder(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	appendAll(t, j, "epoch-1")
	seg2, err := j.rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	// writeSnapshot does not prune: the older snapshot and its tail
	// stay, as a crash between a snapshot's rename and its prune
	// leaves them.
	if err := j.writeSnapshot(seg2, []byte("SNAP-2")); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	appendAll(t, j, "epoch-2")
	seg3, err := j.rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := j.writeSnapshot(seg3, []byte("SNAP-3")); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	appendAll(t, j, "epoch-3")
	if err := j.Close(nil, nil); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Corrupt the newest snapshot's payload byte.
	path := filepath.Join(dir, snapName(seg3))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := recovered(t, dir)
	if rec.SnapshotSeg != seg2 || string(rec.Snapshot) != "SNAP-2" {
		t.Fatalf("fallback snapshot = seg %d %q, want seg %d SNAP-2", rec.SnapshotSeg, rec.Snapshot, seg2)
	}
	if rec.CorruptSnapshots != 1 {
		t.Fatalf("CorruptSnapshots = %d, want 1", rec.CorruptSnapshots)
	}
	// Tail must replay from seg2: epoch-2 then epoch-3.
	if got := recordStrings(rec); len(got) != 2 || got[0] != "epoch-2" || got[1] != "epoch-3" {
		t.Fatalf("records = %v, want [epoch-2 epoch-3]", got)
	}
}

func TestMidSnapshotCrashLeavesOldSnapshotAuthoritative(t *testing.T) {
	dir := t.TempDir()
	inj := &Injector{}
	t.Cleanup(ArmDir(dir, inj))
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	rotate := func() uint64 {
		seg, err := j.rotate()
		if err != nil {
			t.Fatalf("rotate: %v", err)
		}
		return seg
	}
	if err := j.landSnapshot(rotate(), []byte("SNAP-OLD")); err != nil {
		t.Fatalf("landSnapshot: %v", err)
	}
	inj.Arm(CrashMidSnapshot, 0)
	err := j.landSnapshot(rotate(), []byte("SNAP-NEW-NEVER-LANDS"))
	if err != ErrCrashed {
		t.Fatalf("landSnapshot with armed crash = %v, want ErrCrashed", err)
	}
	if !inj.Fired() || j.Err() == nil {
		t.Fatalf("fired %v, dead %v: want the crash to kill the journal", inj.Fired(), j.Err() != nil)
	}
	if st := j.Stats(); st.Snapshots != 1 || st.LastSnapshotSeg != 2 {
		t.Fatalf("snapshot stats: %d snapshots, newest %d", st.Snapshots, st.LastSnapshotSeg)
	}
	_ = j.Close(nil, nil)
	rec := recovered(t, dir)
	if rec.SnapshotSeg != 2 || string(rec.Snapshot) != "SNAP-OLD" {
		t.Fatalf("snapshot = seg %d %q, want seg 2 SNAP-OLD", rec.SnapshotSeg, rec.Snapshot)
	}
	// Recovery must have swept the temp file.
	if _, err := os.Stat(filepath.Join(dir, snapName(3)+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp snapshot not cleaned: %v", err)
	}
}

// TestFlushFailureKillsJournal pins the fail-stop: a batch write that
// fails kills the journal before its waiter is released, logs one
// error naming the directory and the cause, refuses every later
// append, and leaves on disk exactly the records acknowledged before
// the failure.
func TestFlushFailureKillsJournal(t *testing.T) {
	logged := testnet.CaptureLog(t)
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	appendAll(t, j, "acked-1", "acked-2")

	// Swap the segment for a read-only handle: the next write fails.
	ro, err := os.Open(filepath.Join(dir, segName(j.Segment())))
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	rw := j.f
	j.f = ro
	j.mu.Unlock()
	defer rw.Close()

	c, err := j.Append([]byte("never-acked"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	werr := c.Wait()
	dead := j.Err() != nil
	var pe *os.PathError
	if !errors.As(werr, &pe) {
		t.Fatalf("failed batch Wait = %v, want the write error", werr)
	}
	if !dead {
		t.Fatal("journal not dead when the failed batch's waiter returned")
	}
	if _, err := j.Append([]byte("after-failure")); err != ErrCrashed {
		t.Fatalf("Append after a failed flush = %v, want ErrCrashed", err)
	}
	_ = j.Close(nil, nil)

	recs := logged.Lines()
	if len(recs) != 1 {
		t.Fatalf("logged %d records, want one fail-stop error", len(recs))
	}
	attrs := recs[0].Attrs
	if recs[0].Level != slog.LevelError || attrs["dir"] != dir {
		t.Fatalf("fail-stop record = %v %q %v, want an error naming %s", recs[0].Level, recs[0].Message, attrs, dir)
	}
	if cause, _ := attrs["err"].(error); !errors.As(cause, &pe) {
		t.Fatalf("fail-stop record err = %v, want the *os.PathError", attrs["err"])
	}

	rec := recovered(t, dir)
	if got := strings.Join(recordStrings(rec), ","); got != "acked-1,acked-2" || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered [%s] truncating %d bytes, want [acked-1,acked-2] and no tear", got, rec.TruncatedBytes)
	}
}

// TestOpenLogsRecovery: an Open that found state logs one info line
// saying what it recovered and repaired; a fresh directory logs none.
func TestOpenLogsRecovery(t *testing.T) {
	logged := testnet.CaptureLog(t)
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	appendAll(t, j, "r1", "r2")
	if err := j.Close(nil, nil); err != nil {
		t.Fatal(err)
	}
	if recs := logged.Lines(); len(recs) != 0 {
		t.Fatalf("a fresh directory's open logged %d records", len(recs))
	}

	line := func(i int) map[string]any {
		t.Helper()
		recs := logged.Lines()
		if len(recs) != i+1 {
			t.Fatalf("%d records after open %d, want %d", len(recs), i+2, i+1)
		}
		r := recs[i]
		attrs := r.Attrs
		if r.Level != slog.LevelInfo || r.Message != "wal: recovered" || attrs["dir"] != dir {
			t.Fatalf("record %v %q %v, want the recovery line for %s", r.Level, r.Message, attrs, dir)
		}
		for _, k := range []string{"snapshot_seg", "records", "truncated_bytes", "dropped_segments", "corrupt_snapshots", "duration"} {
			if _, ok := attrs[k]; !ok {
				t.Fatalf("recovery line %v has no %s", attrs, k)
			}
		}
		return attrs
	}

	j = mustOpen(t, dir, Options{Mode: ModeSync})
	if a := line(0); a["records"] != int64(2) || a["truncated_bytes"] != int64(0) {
		t.Fatalf("restart logged %v, want 2 records and no repair", a)
	}
	appendAll(t, j, "r3")
	if err := j.Close(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := TruncateTail(dir, 1); err != nil {
		t.Fatal(err)
	}
	j = mustOpen(t, dir, Options{Mode: ModeSync})
	defer j.Close(nil, nil)
	if a := line(1); a["records"] != int64(2) || a["truncated_bytes"].(int64) <= 0 {
		t.Fatalf("open after a torn tail logged %v, want 2 records and the truncated bytes", a)
	}
}

// TestOpenReplaysIntoTheOwner: Open hands the snapshot and the tail to
// the callbacks in order and names what a failing callback choked on.
func TestOpenReplaysIntoTheOwner(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	appendAll(t, j, "r1")
	seg, err := j.rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.landSnapshot(seg, []byte("S")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "r2", "r3")
	if err := j.Close(nil, nil); err != nil {
		t.Fatal(err)
	}

	var seen []string
	note := func(p []byte) error { seen = append(seen, string(p)); return nil }
	j2, err := Open(dir, Options{Mode: ModeSync}, note, note)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(seen, ","); got != "S,r2,r3" {
		t.Fatalf("callbacks saw %s, want S,r2,r3", got)
	}
	if st := j2.Stats(); st.LastSnapshotSeg != seg || st.Snapshots != 0 || st.Recovery.Records != 2 {
		t.Fatalf("reopened stats: %+v", st)
	}
	if err := j2.Close(nil, nil); err != nil {
		t.Fatal(err)
	}

	bad := errors.New("bad record")
	_, err = Open(dir, Options{Mode: ModeSync}, ignore, func(p []byte) error {
		if string(p) == "r3" {
			return bad
		}
		return nil
	})
	if !errors.Is(err, bad) || !strings.Contains(err.Error(), "replay record 2/2") {
		t.Fatalf("Open with a failing replay = %v", err)
	}
	_, err = Open(dir, Options{Mode: ModeSync}, func([]byte) error { return bad }, ignore)
	if !errors.Is(err, bad) || !strings.Contains(err.Error(), fmt.Sprintf("snapshot %d", seg)) {
		t.Fatalf("Open with a failing restore = %v", err)
	}
}

func TestInjectorArmAfterN(t *testing.T) {
	inj := &Injector{}
	inj.Arm(CrashPreAppend, 2)
	if inj.Fire(CrashPreAppend) || inj.Fire(CrashPreAppend) {
		t.Fatal("fired too early")
	}
	if inj.Fire(CrashPostAppend) {
		t.Fatal("fired at wrong point")
	}
	if !inj.Fire(CrashPreAppend) {
		t.Fatal("did not fire on third consultation")
	}
	if inj.Fire(CrashPreAppend) {
		t.Fatal("fired twice")
	}
	var nilInj *Injector
	if nilInj.Fire(CrashPreAppend) || nilInj.Fired() {
		t.Fatal("nil injector fired")
	}
}

func TestKillFailsPendingAndFutureAppends(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	appendAll(t, j, "before")
	j.Kill()
	if _, err := j.Append([]byte("after")); err != ErrCrashed {
		t.Fatalf("Append after Kill = %v, want ErrCrashed", err)
	}
	if err := j.Sync(); err != ErrCrashed {
		t.Fatalf("Sync after Kill = %v, want ErrCrashed", err)
	}
	if _, err := j.rotate(); err != ErrCrashed {
		t.Fatalf("rotate after Kill = %v, want ErrCrashed", err)
	}
	if err := j.Close(nil, nil); err != nil {
		t.Fatalf("Close after Kill: %v", err)
	}
	rec := recovered(t, dir)
	if got := recordStrings(rec); len(got) != 1 || got[0] != "before" {
		t.Fatalf("records = %v, want [before]", got)
	}
}

func TestAsyncModeLosesOnlyUnflushedSuffix(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Mode: ModeAsync})
	for i := 0; i < 10; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("a-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// These may or may not reach disk before the kill.
	for i := 0; i < 5; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("b-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.Kill()
	_ = j.Close(nil, nil)
	rec := recovered(t, dir)
	got := recordStrings(rec)
	if len(got) < 10 || len(got) > 15 {
		t.Fatalf("recovered %d records, want 10..15", len(got))
	}
	// Whatever survived must be a strict prefix of the append order.
	for i, r := range got {
		var want string
		if i < 10 {
			want = fmt.Sprintf("a-%d", i)
		} else {
			want = fmt.Sprintf("b-%d", i-10)
		}
		if r != want {
			t.Fatalf("record %d = %q, want %q (prefix violated)", i, r, want)
		}
	}
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		err  bool
	}{
		{"off", ModeOff, false}, {"", ModeOff, false},
		{"async", ModeAsync, false}, {"sync", ModeSync, false},
		{"bogus", 0, true},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Fatalf("ParseMode(%q) = %v, %v", c.in, got, err)
		}
	}
	if ModeSync.String() != "sync" || ModeOff.String() != "off" || ModeAsync.String() != "async" {
		t.Fatal("Mode.String mismatch")
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	rec := recovered(t, filepath.Join(t.TempDir(), "missing"))
	if rec.SnapshotSeg != 0 || rec.Snapshot != nil || len(rec.Records) != 0 || rec.NextSeg != 1 {
		t.Fatalf("zero recovery: %+v", rec)
	}
}

// TestArmDirSeam pins the crash seam: an injector armed on a parent
// directory reaches the journals opened in its subdirectories, one
// fired fault or Kill kills every one of them, a sibling directory
// outside the prefix is untouched, and disarm leaves later opens
// unarmed.
func TestArmDirSeam(t *testing.T) {
	// process opens two journals under an armed root and one beside it.
	process := func(t *testing.T) (inj *Injector, a, b, out *Journal, root string, disarm func()) {
		base := t.TempDir()
		root = filepath.Join(base, "process")
		inj = &Injector{}
		disarm = ArmDir(root, inj)
		t.Cleanup(disarm)
		a = mustOpen(t, filepath.Join(root, "city-a"), Options{Mode: ModeSync})
		b = mustOpen(t, filepath.Join(root, "relay"), Options{Mode: ModeSync})
		out = mustOpen(t, filepath.Join(base, "sibling"), Options{Mode: ModeSync})
		for _, j := range []*Journal{a, b, out} {
			t.Cleanup(func() { _ = j.Close(nil, nil) })
		}
		return inj, a, b, out, root, disarm
	}
	dead := func(t *testing.T, name string, j *Journal) {
		t.Helper()
		if err := j.Err(); err != ErrCrashed {
			t.Fatalf("%s: Err = %v, want ErrCrashed", name, err)
		}
		if _, err := j.Append([]byte("after")); err != ErrCrashed {
			t.Fatalf("%s: Append after the kill = %v, want ErrCrashed", name, err)
		}
	}
	alive := func(t *testing.T, j *Journal) {
		t.Helper()
		if err := j.Err(); err != nil {
			t.Fatalf("Err = %v, want a live journal", err)
		}
		appendAll(t, j, "still-alive")
	}

	for _, firing := range []string{"a", "b"} {
		t.Run("fire in "+firing, func(t *testing.T) {
			inj, a, b, out, _, _ := process(t)
			j := map[string]*Journal{"a": a, "b": b}[firing]
			appendAll(t, j, "before")
			inj.Arm(CrashPreAppend, 0)
			if _, err := j.Append([]byte("fatal")); err != ErrCrashed {
				t.Fatalf("Append at the armed point = %v, want ErrCrashed", err)
			}
			dead(t, "a", a)
			dead(t, "b", b)
			alive(t, out)
		})
	}

	t.Run("kill", func(t *testing.T) {
		inj, a, b, out, _, _ := process(t)
		inj.Kill()
		dead(t, "a", a)
		dead(t, "b", b)
		alive(t, out)
	})

	t.Run("disarm", func(t *testing.T) {
		inj, a, _, _, root, disarm := process(t)
		disarm()
		late := mustOpen(t, filepath.Join(root, "late"), Options{Mode: ModeSync})
		defer late.Close(nil, nil)
		inj.Arm(CrashPreAppend, 0)
		appendAll(t, late, "unarmed")
		if inj.Fired() {
			t.Fatal("a journal opened after disarm consulted the injector")
		}
		inj.Kill()
		dead(t, "a", a)
		alive(t, late)
	})
}

// TestFlushLag: a flushed batch's lag runs from its first Append to the
// end of its write and fsync, so after an Append and a Sync it is above
// 0 and at most the wall time the two took.
func TestFlushLag(t *testing.T) {
	for _, mode := range []Mode{ModeSync, ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			j := mustOpen(t, t.TempDir(), Options{Mode: mode})
			defer j.Close(nil, nil)
			if lag := j.Stats().FlushLag; lag != 0 {
				t.Fatalf("lag %v before any flush, want 0", lag)
			}
			start := time.Now()
			if _, err := j.Append([]byte("rec")); err != nil {
				t.Fatal(err)
			}
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			if lag := j.Stats().FlushLag; lag <= 0 || lag > elapsed {
				t.Fatalf("lag %v after Append and Sync, want in (0, %v]", lag, elapsed)
			}
		})
	}
}

// TestSnapshotLifecycle: Snapshot captures the owner's state under its
// lock beside a fresh segment, so recovery restores it with no tail;
// Close writes a final snapshot of a live journal, and a dead journal
// closes without one.
func TestSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Mode: ModeSync})
	var mu sync.Mutex
	state := "s0"
	capture := func() any {
		if mu.TryLock() {
			t.Error("capture ran without the owner's lock")
			mu.Unlock()
		}
		return state
	}
	appendAll(t, j, "a")
	if err := j.Snapshot(&mu, capture); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendAll(t, j, "b")
	state = "s1"
	if err := j.Close(&mu, capture); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec := recovered(t, dir)
	if string(rec.Snapshot) != `"s1"` || len(rec.Records) != 0 {
		t.Fatalf("after Close: snapshot %q, records %v; want \"s1\" and no tail", rec.Snapshot, recordStrings(rec))
	}

	inj := &Injector{}
	disarm := ArmDir(dir, inj)
	j2 := mustOpen(t, dir, Options{Mode: ModeSync})
	disarm()
	appendAll(t, j2, "c")
	inj.Kill()
	state = "never"
	if err := j2.Snapshot(&mu, capture); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Snapshot of a dead journal = %v, want ErrCrashed", err)
	}
	if err := j2.Close(&mu, capture); err != nil {
		t.Fatalf("Close of a dead journal: %v", err)
	}
	rec = recovered(t, dir)
	if string(rec.Snapshot) != `"s1"` || len(rec.Records) != 1 {
		t.Fatalf("after a dead Close: snapshot %q, records %v; want \"s1\" and [c]", rec.Snapshot, recordStrings(rec))
	}
}
