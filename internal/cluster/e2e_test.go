// e2e_test.go is the cluster's multi-process acceptance harness: it
// builds cmd/ptrider-shard, launches two real shard processes with
// write-ahead journals, routes a cross-city relay trip through a
// gateway over real sockets, SIGKILLs the destination shard inside the
// two-phase commit window (via -test-crash-after-choose), restarts it
// over the same journal, and verifies the deferred compensation
// releases every leg reservation with request-id continuity intact.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/relay"
)

// freePort reserves an ephemeral port and releases it for the shard to
// bind (a small race, tolerated — the test fails loudly on collision).
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("free port: %v", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// buildShardBinary compiles cmd/ptrider-shard into dir.
func buildShardBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "ptrider-shard")
	cmd := exec.Command("go", "build", "-o", bin, "ptrider/cmd/ptrider-shard")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build ptrider-shard: %v\n%s", err, out)
	}
	return bin
}

// shardProc is one launched shard process. done is closed once the
// process has exited, so any number of waiters can observe it.
type shardProc struct {
	cmd  *exec.Cmd
	addr string
	out  *bytes.Buffer
	done chan struct{}
}

// launchShard starts the shard binary and returns once the process is
// running (readiness is the dialing client's job).
func launchShard(t *testing.T, bin string, port int, extra ...string) *shardProc {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start shard: %v", err)
	}
	p := &shardProc{cmd: cmd, addr: addr, out: &out, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(p.done) }()
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
		<-p.done
	})
	return p
}

// waitExit blocks until the process exits and returns its exit code.
func (p *shardProc) waitExit(t *testing.T, within time.Duration) int {
	t.Helper()
	select {
	case <-p.done:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(within):
		t.Fatalf("shard %s did not exit within %v\n%s", p.addr, within, p.out.String())
		return -1
	}
}

// fleetLoad sums assigned work across a shard's fleet through its RPC
// surface.
func fleetLoad(t *testing.T, c *ShardClient) int {
	t.Helper()
	views, err := c.Vehicles("", 0)
	if err != nil {
		t.Fatalf("vehicles %s: %v", c.addr, err)
	}
	load := 0
	for _, v := range views {
		load += v.Pending + v.Onboard
	}
	return load
}

// TestE2EShardCrashInCommitWindow is the PR's acceptance pin: a
// cross-city relay commit whose destination shard is killed after
// journaling its leg but before acknowledging it must be compensated
// idempotently after the shard's WAL-driven restart — no vehicle stays
// reserved for the aborted trip, and the recovered shard quotes new
// requests with its id sequence intact.
func TestE2EShardCrashInCommitWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildShardBinary(t, dir)
	portA, portB := freePort(t), freePort(t)
	walA, walB := filepath.Join(dir, "wal-alpha"), filepath.Join(dir, "wal-beta")

	alphaArgs := []string{"-width", "10", "-height", "10", "-taxis", "10", "-seed", "1", "-wal-dir", walA}
	betaArgs := []string{"-width", "8", "-height", "8", "-origin-x", "20000", "-taxis", "10", "-seed", "2", "-wal-dir", walB}

	launchShard(t, bin, portA, alphaArgs...)
	beta := launchShard(t, bin, portB, append(betaArgs, "-test-crash-after-choose")...)

	cfg := fastClient()
	cfg.DialTimeout = 30 * time.Second
	gw, err := NewGateway(
		[]string{"alpha=" + fmt.Sprintf("127.0.0.1:%d", portA), "beta=" + fmt.Sprintf("127.0.0.1:%d", portB)},
		GatewayConfig{Client: cfg, Relay: relay.Config{TransferBufferSeconds: 120}})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	defer gw.Close()
	sched := gw.RelayScheduler()

	// Quote a cross-city trip over the sockets and note the
	// destination shard's id high-water mark before the crash.
	rng := rand.New(rand.NewSource(11))
	rec := quotedSpec(t, gw, "alpha", "beta", rng)
	betaClient, err := Dial(beta.addr, cfg)
	if err != nil {
		t.Fatalf("beta client: %v", err)
	}
	defer betaClient.Close()
	betaRecs, err := betaClient.Requests("", core.RequestFilter{}, 0)
	if err != nil || len(betaRecs) == 0 {
		t.Fatalf("beta ledger before crash: %d, %v", len(betaRecs), err)
	}
	maxBetaID := betaRecs[len(betaRecs)-1].ID

	// Commit: leg 1 books on alpha, then beta journals its leg and
	// exits 137 without replying — the ambiguous commit window.
	err = gw.Choose(rec.ID, 0)
	if !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("choose through the crash: %v, want ErrUnavailable", err)
	}
	if code := beta.waitExit(t, 10*time.Second); code != 137 {
		t.Fatalf("beta exit code %d, want 137\n%s", code, beta.out.String())
	}
	if got := sched.PendingCompensations(); got != 1 {
		t.Fatalf("pending compensations %d, want 1", got)
	}

	// Restart beta over the same journal, without the crash flag. Its
	// WAL replays the orphaned leg-2 booking.
	launchShard(t, bin, portB, betaArgs...)
	deadline := time.Now().Add(30 * time.Second)
	for betaClient.Ready() != nil {
		if time.Now().After(deadline) {
			t.Fatal("restarted beta never became ready")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The next tick drains the deferred compensation: both legs are
	// released on their shards, idempotently against the replayed WAL.
	if _, err := gw.Advance(1); err != nil {
		t.Fatalf("advance after restart: %v", err)
	}
	if got := sched.PendingCompensations(); got != 0 {
		t.Fatalf("pending compensations %d after drain, want 0", got)
	}
	tv, err := gw.GetRequest(rec.ID)
	if err != nil || tv.Status != core.StatusDeclined {
		t.Fatalf("trip after compensation: %+v, %v", tv, err)
	}

	// No vehicle on either shard still carries the aborted trip.
	alphaClient, err := Dial(fmt.Sprintf("127.0.0.1:%d", portA), cfg)
	if err != nil {
		t.Fatalf("alpha client: %v", err)
	}
	defer alphaClient.Close()
	for name, c := range map[string]*ShardClient{"alpha": alphaClient, "beta": betaClient} {
		st := c.ServiceStats()
		if len(st.Cities) != 1 {
			t.Fatalf("stats %s: shard unreachable", name)
		}
		if st.Total.Assigned != 0 {
			t.Fatalf("shard %s holds %d assigned legs after compensation", name, st.Total.Assigned)
		}
		if load := fleetLoad(t, c); load != 0 {
			t.Fatalf("shard %s fleet still loaded: %d", name, load)
		}
	}

	// Id continuity: the recovered shard's next quote continues the
	// journaled sequence instead of reusing ids.
	fresh := quotedSpec(t, gw, "beta", "beta", rng)
	// Two shards: global id = local·2 + city index.
	if local := fresh.ID / 2; local <= maxBetaID {
		t.Fatalf("recovered shard reused ids: new local %d, pre-crash max %d", local, maxBetaID)
	}
	if err := gw.Decline(fresh.ID); err != nil {
		t.Fatalf("decline: %v", err)
	}
}
