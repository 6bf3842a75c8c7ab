// Command ptrider-perf is PTRider's one benchmark: four seeded
// rider-traffic workloads driven through the /v1 HTTP surface over
// loopback sockets, and underneath them a ladder that replays each
// workload's requests through every layer in turn. README.md in this
// directory documents workloads, metrics and how to read the output;
// BENCHMARK.json at the repository root is the contract it is run under.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: city_quote, hotcell_burst, peak_lifecycle or twin_cluster (empty = all four)")
		seed         = flag.Int64("seed", 1, "seed of the traffic: request streams, arrival times, rider choices")
		seconds      = flag.Float64("seconds", 24, "measured seconds per run")
		trace        = flag.Int("trace", 0, "0 = untraced run printing the end-to-end metrics; 1 = traced run printing the per-layer metrics")
		spans        = flag.String("spans", "", "file a traced run writes its spans to as JSON lines (default <workdir>/spans-<workload>.jsonl)")
		workdir      = flag.String("workdir", filepath.Join(".bench_build", "run"), "directory for journals, child logs, the shard binary and span files")
		selfcheck    = flag.Bool("selfcheck", false, "run two sets of every workload (three untraced runs and one traced each) and compare their medians against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	shardBin, err := filepath.Abs(filepath.Join(*workdir, "ptrider-shard"))
	if err != nil {
		fatal(err)
	}
	if err := buildShard(shardBin); err != nil {
		fatal(err)
	}
	printHost()

	suite := &suite{seed: *seed, seconds: *seconds, workdir: *workdir, shardBin: shardBin, spans: *spans}
	switch {
	case *selfcheck:
		err = suite.selfcheck(ctx)
	case *workloadName == "":
		err = suite.all(ctx)
	default:
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		var res *result
		if res, err = suite.one(ctx, w, *trace != 0); err == nil {
			printResult(w.name, res)
			if !res.Correct {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptrider-perf:", err)
	os.Exit(2)
}

// printHost records what the numbers were measured on.
func printHost() {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// suite runs workloads with one set of flags.
type suite struct {
	seed     int64
	seconds  float64
	workdir  string
	shardBin string
	spans    string
}

// one runs a single workload in a scratch directory of its own.
func (s *suite) one(ctx context.Context, w *workload, traced bool) (*result, error) {
	dir, err := os.MkdirTemp(s.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spanFile := s.spans
	if spanFile == "" {
		spanFile = filepath.Join(s.workdir, "spans-"+w.name+".jsonl")
	}
	cfg := &runConfig{
		w: w, seed: s.seed, seconds: s.seconds, traced: traced,
		dir: dir, shardBin: s.shardBin, spanFile: spanFile, setups: setupRepeats,
	}
	if traced {
		cfg.setups = 1
	}
	return run(ctx, cfg)
}

// printResult prints the notes, every metric the run measured by name
// with its unit — those of its result line and whatever else of the
// catalogue its phases produced — and the result line last.
func printResult(name string, res *result) {
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.values[d.name]; ok {
				fmt.Printf("%-16s %-34s %14.4f %s\n", name, d.name, v, d.unit)
			}
		}
	}
	fmt.Printf("%-16s attempted %d, failed %d, correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// all runs the four workloads untraced, then traced.
func (s *suite) all(ctx context.Context) error {
	failed := []string{}
	for _, traced := range []bool{false, true} {
		for i := range workloads {
			w := &workloads[i]
			res, err := s.one(ctx, w, traced)
			if err != nil {
				return err
			}
			printResult(w.name, res)
			if !res.Correct {
				failed = append(failed, w.name)
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("incorrect: %s", strings.Join(failed, ", "))
	}
	return nil
}
