package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/wal"
)

// TestReadyFailsAfterFlushError: a journal write that fails kills the
// journal, and the engine stops being ready even though the async tick
// whose record failed was acknowledged. The failure is real I/O: the
// live segment's descriptor is swapped, under the running engine, for
// a read-only one on the same file.
func TestReadyFailsAfterFlushError(t *testing.T) {
	dir := t.TempDir()
	e := walEngine(t, wal.ModeAsync, dir, nil, 0)
	defer e.Close()
	// Snapshot rotates to segment 2 and syncs, so the flusher is idle.
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	seg, err := filepath.EvalSymlinks(filepath.Join(dir, "journal-00000002.wal"))
	if err != nil {
		t.Fatal(err)
	}
	fd := openFD(t, seg)
	ro, err := os.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := syscall.Dup3(int(ro.Fd()), fd, syscall.O_CLOEXEC); err != nil {
		t.Fatalf("dup3: %v", err)
	}

	if _, err := e.Tick(1); err != nil {
		t.Fatalf("async tick: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); e.Ready() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("engine still ready after its journal failed a write")
		}
	}
	if err := e.Ready(); !errors.Is(err, core.ErrCrashed) {
		t.Fatalf("Ready = %v, want ErrCrashed", err)
	}
	if _, err := e.Tick(1); !errors.Is(err, core.ErrCrashed) {
		t.Fatalf("tick after the failure = %v, want ErrCrashed", err)
	}
}

// openFD finds the descriptor this process holds open on path.
func openFD(t *testing.T, path string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, ent := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + ent.Name()); err == nil && target == path {
			fd, err := strconv.Atoi(ent.Name())
			if err != nil {
				t.Fatal(err)
			}
			return fd
		}
	}
	t.Skipf("no descriptor open on %s", path)
	return -1
}
