package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json at the repository root: the contract
// the benchmark is run under, and where the regression bounds live.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound,omitempty"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// exactCounts are the per-layer metrics two runs of the same code and
// seed must report identically: counts the serial ladder replay makes
// of deterministic work. core.batch.dist_calls_per_req is not among
// them: a batch's origin groups are matched concurrently, two of them
// racing on one cold vertex pair both compute it, and DistCalls counts
// both — on the reference host that moved the count by one search in
// four thousand, so it is held to nearCount instead.
var exactCounts = []string{
	"core.match.verified_per_req", "core.match.pruned_per_req", "core.match.cells_per_req",
	"core.match.options_per_req", "core.match.width",
	"core.memo.dist_calls_per_req", "core.single.dist_calls_per_req",
}

const (
	nearCount     = "core.batch.dist_calls_per_req"
	nearTolerance = 0.01
	allocsCount   = "core.submit_allocs_per_op"
)

// selfcheckRuns is how many untraced runs make one of selfcheck's two
// sets. A set's value of a metric is the median over its runs, as the
// driver's is over its ten, so one disturbed run does not decide the
// verdict; the sets' runs alternate, so a slow spell of the host falls
// on both.
const selfcheckRuns = 3

// unbounded are the live-phase timings selfcheck prints for the reader
// without a verdict: they carry no bound.
var unbounded = []string{"call_p50_ms", "submit_p50_ms", "submit_p99_ms", "cycle_p50_ms", "throughput_rps"}

// selfcheck runs two sets of every workload with one seed — each set
// selfcheckRuns untraced runs and one traced — and prints, for each
// end-to-end metric, both sets' medians, how far apart they are as a
// share of the smaller, and whether that is within the metric's bound;
// then the same without a verdict for the unbounded timings, and the
// verdicts on the exact counts, which must be equal, and the two counts
// that must be close.
func (s *suite) selfcheck(ctx context.Context) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	failures := 0
	verdict := func(ok bool) string {
		if ok {
			return "pass"
		}
		failures++
		return "FAIL"
	}
	for i := range workloads {
		w := &workloads[i]
		// sets[k][name] collects set k's values of a metric, one per run.
		var sets [2]map[string][]float64
		collect := func(k int, traced bool) error {
			res, err := s.one(ctx, w, traced)
			if err != nil {
				return err
			}
			if !res.Correct {
				printResult(w.name, res)
				return fmt.Errorf("%s: a run of set %d is incorrect", w.name, k+1)
			}
			if sets[k] == nil {
				sets[k] = map[string][]float64{}
			}
			// An untraced run measures the live timings too; the traced
			// run's copies of them, from shorter phases, are left out.
			for name, v := range res.values {
				if _, dup := sets[k][name]; !traced || !dup {
					sets[k][name] = append(sets[k][name], v)
				}
			}
			return nil
		}
		for range selfcheckRuns {
			for k := range sets {
				if err := collect(k, false); err != nil {
					return err
				}
			}
		}
		for k := range sets {
			if err := collect(k, true); err != nil {
				return err
			}
		}
		pair := func(name string) (a, b float64) { return median(sets[0][name]), median(sets[1][name]) }
		apart := func(a, b float64) float64 { return math.Max(a/b, b/a) - 1 }
		for _, spec := range bf.EndToEnd {
			// Two sets of one commit: neither is the parent, so the bound
			// holds in both directions.
			a, b := pair(spec.Name)
			fmt.Printf("%-16s %-30s %12.4f %12.4f %-6s apart %.3f  bound %.2f  %s\n",
				w.name, spec.Name, a, b, spec.Unit, apart(a, b), spec.Bound, verdict(apart(a, b) <= spec.Bound))
		}
		for _, name := range unbounded {
			a, b := pair(name)
			fmt.Printf("%-16s %-30s %12.4f %12.4f        apart %.3f  no bound\n", w.name, name, a, b, apart(a, b))
		}
		for _, name := range exactCounts {
			a, b := pair(name)
			fmt.Printf("%-16s %-30s %12.4f %12.4f count  exact  %s\n", w.name, name, a, b, verdict(a == b))
		}
		a, b := pair(nearCount)
		fmt.Printf("%-16s %-30s %12.4f %12.4f count  within 1%%  %s\n", w.name, nearCount, a, b, verdict(math.Abs(a-b) <= nearTolerance*a))
		a, b = pair(allocsCount)
		fmt.Printf("%-16s %-30s %12.4f %12.4f count  within 1  %s\n", w.name, allocsCount, a, b, verdict(math.Abs(a-b) <= 1))
	}
	if failures > 0 {
		return fmt.Errorf("selfcheck: %d comparisons failed", failures)
	}
	return nil
}
