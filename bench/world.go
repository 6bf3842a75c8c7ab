package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ptrider/internal/cluster"
	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/roadnet"
	"ptrider/internal/server"
	"ptrider/internal/sim"
	"ptrider/internal/telemetry"
	"ptrider/internal/wal"
)

// cityShape sizes one generated city.
type cityShape struct {
	width, height int
	taxis         int
	warmTrips     int // trips committed before serving, so kinetic trees are loaded
	memoWarm      int // quote+decline cycles replayed before serving, so the distance memo is not cold
}

// workload is one deployment plus the traffic sent to it. The numbers
// are the reference host's (2 cores): reference rates sit near a third
// of the closed-loop ceiling measured there and are constants, never
// derived at run time, so two runs always offer the same load.
type workload struct {
	name  string
	shape cityShape
	twin  bool // two ptrider-shard processes behind an in-process gateway
	wal   bool // journal in async mode
	surge bool
	// policy is what riders do with their options.
	policy policy

	refRate    float64       // Poisson arrival rate of phase A, riders/s
	closedRate float64       // phase C's cycles per second of its share of the run: what the reference host completes
	relayShare float64       // share of phase-A riders crossing cities
	burstEvery time.Duration // hotcell_burst: gap between bursts of 16
	peakRate   float64       // peak_lifecycle: arrival rate in the busiest hour
	tickEvery  time.Duration // gap between POST /v1/ticks; 0 = time stands still
	tickSecs   float64       // simulated seconds per tick; 0 = derived from the replay speed
	listing    bool          // the tick connection also lists assigned requests
	sloMs      float64       // latency limit on submit_p99_ms
}

var (
	bigCity   = cityShape{width: 40, height: 40, taxis: 500, warmTrips: 600, memoWarm: 200}
	smallCity = cityShape{width: 24, height: 24, taxis: 150, warmTrips: 150}
)

var workloads = []workload{
	{name: "city_quote", shape: bigCity, policy: declineAll, refRate: 300, closedRate: 1700, sloMs: 25},
	{name: "hotcell_burst", shape: bigCity, policy: declineAll, burstEvery: 125 * time.Millisecond, closedRate: 5000, sloMs: 25},
	{name: "peak_lifecycle", shape: bigCity, wal: true, surge: true, policy: utilityChoice,
		peakRate: 250, closedRate: 3000, tickEvery: time.Second / 12, listing: true, sloMs: 25},
	{name: "twin_cluster", shape: smallCity, twin: true, wal: true, policy: utilityChoice,
		refRate: 120, closedRate: 1000, relayShare: 0.10, tickEvery: 250 * time.Millisecond, tickSecs: 15, sloMs: 50},
}

// deploymentSeed generates every city, its fleet and its warm-up trips.
// The deployment belongs to a workload's definition, like the size of
// its city; -seed varies the traffic sent to it. Measured on the
// reference host, letting the seed move the city too made
// hotcell_burst's submit_p50_ms spread 30 % across ten seeds (each
// seed's hot cell has a fleet of its own around it) against 5 % across
// ten runs of one seed.
const deploymentSeed = 1

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// peakDaySeconds is the simulated length of peak_lifecycle's compressed
// day; peakHourShare the share of gen.PeakHourlyWeights in its busiest
// hour (2.8 of 14.56); peakWindowStart where in the day a run too short
// for all of it starts: 06:30, ahead of the morning rush.
const (
	peakDaySeconds  = 2400.0
	peakHourShare   = 2.8 / 14.56
	peakWindowStart = 6.5 / 24
)

// world is one running deployment: the system under test behind a
// loopback listener, plus the handles the correctness gate reads.
type world struct {
	w      *workload
	dir    string
	base   string // http://127.0.0.1:port
	eng    *core.Engine
	engCfg core.Config
	gw     *cluster.Gateway
	gwReg  *telemetry.Registry
	shards []*shardProc
	graphs []*roadnet.Graph
	cities []string
	srv    *http.Server
}

func (wd *world) source() *streamSource {
	src := &streamSource{graphs: wd.graphs, coords: wd.w.twin}
	if wd.eng != nil {
		src.grid = wd.eng.Grid()
	}
	return src
}

// stats is the deployment's statistics panel, summed over its cities.
func (wd *world) stats() core.EngineStats {
	if wd.eng != nil {
		return wd.eng.Stats()
	}
	return wd.gw.ServiceStats().Total
}

// engineConfig is the engine configuration of a single-engine
// deployment. Everything not named keeps the server's defaults.
func engineConfig(walDir string, surge bool) core.Config {
	cfg := core.Config{
		Algorithm: core.AlgoDualSide, MaxPickupSeconds: pickupCapSeconds,
		Seed: deploymentSeed, Telemetry: telemetry.NewRegistry(), SurgeEnabled: surge,
	}
	if walDir != "" {
		cfg.Durability, cfg.WALDir = wal.ModeAsync, walDir
	}
	return cfg
}

// buildEngine generates the city, builds the engine and its fleet,
// commits the warm-up trips and warms the distance memo.
func buildEngine(shape cityShape, cfg core.Config) (*core.Engine, *roadnet.Graph, error) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: shape.width, Height: shape.height, Seed: deploymentSeed})
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	eng.AddVehiclesUniform(shape.taxis)
	rng := rand.New(rand.NewSource(deploymentSeed ^ 0x5eed))
	if err := commitWarmTrips(eng, "", g, shape.warmTrips, rng); err != nil {
		return nil, nil, err
	}
	for range shape.memoWarm {
		t := uniformTrip(rng, g, 0)
		rec, err := eng.Submit(t.S, t.D, t.Riders)
		if err == nil {
			err = eng.Decline(rec.ID)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("memo warm-up: %w", err)
		}
	}
	return eng, g, nil
}

// serve puts a service behind a loopback listener and waits until it
// answers its readiness probe.
func (wd *world) serve(svc core.Service) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	wd.srv = &http.Server{Handler: server.NewService(svc).Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = wd.srv.Serve(ln) }() // returns ErrServerClosed at close
	wd.base = "http://" + ln.Addr().String()
	return waitReady(wd.base, 10*time.Second)
}

func waitReady(base string, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %w", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// setup builds the workload's deployment in dir and returns it ready
// to serve. Everything between the call and the return is set-up time.
func setup(w *workload, dir, shardBin string) (*world, error) {
	wd := &world{w: w, dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if w.twin {
		err = wd.setupTwin(shardBin)
	} else {
		walDir := ""
		if w.wal {
			walDir = filepath.Join(dir, "wal")
		}
		wd.engCfg = engineConfig(walDir, w.surge)
		var g *roadnet.Graph
		if wd.eng, g, err = buildEngine(w.shape, wd.engCfg); err == nil {
			wd.graphs, wd.cities = []*roadnet.Graph{g}, []string{""}
			err = wd.serve(wd.eng)
		}
	}
	if err != nil {
		wd.close()
		return nil, fmt.Errorf("setup %s: %w", w.name, err)
	}
	return wd, nil
}

// setupTwin spawns one shard process per city, side by side in the
// plane, and connects an in-process gateway to them.
func (wd *world) setupTwin(shardBin string) error {
	shape := wd.w.shape
	spacing := 250.0
	addrs := make([]string, 2)
	for i := range addrs {
		name := "city" + strconv.Itoa(i)
		originX := float64(i) * (float64(shape.width)*spacing + 5000)
		sp, err := startShard(shardBin, filepath.Join(wd.dir, name), shape, deploymentSeed+int64(i), originX)
		if err != nil {
			return err
		}
		wd.shards = append(wd.shards, sp)
		wd.cities = append(wd.cities, name)
		addrs[i] = name + "=" + sp.addr
	}
	for _, sp := range wd.shards {
		if err := waitReady("http://"+sp.addr, 15*time.Second); err != nil {
			return err
		}
	}
	wd.gwReg = telemetry.NewRegistry()
	gcfg := cluster.GatewayConfig{Registry: wd.gwReg}
	gcfg.Relay.LegQuoteHist = wd.gwReg.LatencyHist("ptrider_relay_leg_quote_duration_seconds",
		"Relay leg quote wall time.")
	gw, err := cluster.NewGateway(addrs, gcfg)
	if err != nil {
		return err
	}
	wd.gw = gw
	for _, name := range wd.cities {
		g, err := gw.CityGraph(name)
		if err != nil {
			return err
		}
		wd.graphs = append(wd.graphs, g)
	}
	rng := rand.New(rand.NewSource(deploymentSeed ^ 0x5eed))
	for i, name := range wd.cities {
		if err := commitWarmTrips(gw, name, wd.graphs[i], wd.w.shape.warmTrips, rng); err != nil {
			return err
		}
	}
	return wd.serve(gw)
}

// commitWarmTrips sends uniform trips of one city to the service until
// want riders have chosen an option and been committed, so kinetic
// trees are loaded when timing starts; riders who pick nothing decline.
func commitWarmTrips(svc core.Service, city string, g *roadnet.Graph, want int, rng *rand.Rand) error {
	cons := core.DefaultConstraints()
	cons.MaxPickupSeconds = pickupCapSeconds
	for committed, tries := 0, 0; committed < want; tries++ {
		if tries > 20*want {
			return fmt.Errorf("warm-up %s: only %d of %d trips committed", city, committed, want)
		}
		t := uniformTrip(rng, g, 0)
		rec, err := svc.SubmitRequest(core.SubmitSpec{City: city, S: t.S, D: t.D, Riders: t.Riders, Constraints: cons})
		if err != nil {
			return fmt.Errorf("warm-up submit: %w", err)
		}
		if pick := (sim.UtilityChoice{}).Choose(rec.Options, rng); pick >= 0 && svc.Choose(rec.ID, pick) == nil {
			committed++
		} else if err := svc.Decline(rec.ID); err != nil {
			return fmt.Errorf("warm-up decline: %w", err)
		}
	}
	return nil
}

// close stops the server, the engine and every child process, and
// waits for each.
func (wd *world) close() {
	if wd.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = wd.srv.Shutdown(ctx) // best effort at teardown
		cancel()
		wd.srv = nil
	}
	if wd.gw != nil {
		wd.gw.Close()
		wd.gw = nil
	}
	if wd.eng != nil {
		_ = wd.eng.Close() // the run's verdict is already in
		wd.eng = nil
	}
	for _, sp := range wd.shards {
		sp.stop()
	}
	wd.shards = nil
}

// shardProc is one ptrider-shard child process.
type shardProc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func startShard(bin, dir string, shape cityShape, seed int64, originX float64) (*shardProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "shard.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-width", strconv.Itoa(shape.width), "-height", strconv.Itoa(shape.height),
		"-taxis", strconv.Itoa(shape.taxis), "-seed", strconv.FormatInt(seed, 10),
		"-origin-x", strconv.FormatFloat(originX, 'g', -1, 64),
		"-wal-dir", filepath.Join(dir, "wal"), "-wal-mode", "async")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start shard: %w", err)
	}
	sp := &shardProc{cmd: cmd, addr: addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped child says nothing
		close(sp.done)
	}()
	return sp, nil
}

// stop asks the shard to shut down, kills it if it does not within
// three seconds, and waits until it has exited.
func (sp *shardProc) stop() {
	_ = sp.cmd.Process.Signal(syscall.SIGTERM) // fails only if it has already exited
	select {
	case <-sp.done:
	case <-time.After(3 * time.Second):
		_ = sp.cmd.Process.Kill() // fails only if it has already exited
		<-sp.done
	}
	sp.log.Close()
}

// rssMB reads the child's resident set size from /proc (0 elsewhere).
func (sp *shardProc) rssMB() float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(sp.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// repoRoot walks up from the working directory to the directory whose
// go.mod declares module ptrider.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module ptrider\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module ptrider above the working directory")
		}
		dir = parent
	}
}

// buildShard compiles cmd/ptrider-shard from the checkout's source into
// out. The go command skips the link when out is already up to date.
func buildShard(out string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/ptrider-shard")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ptrider-shard: %w\n%s", err, b)
	}
	return nil
}
