package main

import (
	"context"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

var nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func specNames(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

func equalNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d names, BENCHMARK.json has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: %q where BENCHMARK.json has %q", what, got[i], want[i])
		}
	}
}

// TestCatalogueMatchesContract holds the benchmark's metric and
// workload names to BENCHMARK.json.
func TestCatalogueMatchesContract(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	equalNames(t, "end-to-end metrics", defNames(endToEnd), specNames(bf.EndToEnd))
	equalNames(t, "per-layer metrics", defNames(perLayer), specNames(bf.PerLayer))
	units := map[string]string{}
	for _, s := range append(bf.EndToEnd, bf.PerLayer...) {
		units[s.Name] = s.Unit
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRule.MatchString(d.name) {
			t.Errorf("metric name %q breaks the naming rule", d.name)
		}
		if units[d.name] != d.unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", d.name, d.unit, units[d.name])
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json has %d", len(workloads), len(bf.Workloads))
	}
	for i, w := range bf.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, workloads[i].name, w.Name)
		}
	}
}

// TestSmoke runs every workload end to end at a twentieth of the
// contract's length: set-up, the correctness gate, the live phases, the
// post-run checks, and for traced runs the whole ladder. It asserts
// that each run is correct, that no operation failed, and that the
// emitted metric set is the catalogue's. Under -short only the
// smallest deployment is traced.
func TestSmoke(t *testing.T) {
	shardBin := filepath.Join(t.TempDir(), "ptrider-shard")
	if err := buildShard(shardBin); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() && !w.twin {
				continue
			}
			name := w.name + "/untraced"
			defs := endToEnd
			if traced {
				name, defs = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := run(context.Background(), &runConfig{
					w: w, seed: 5, seconds: 1, traced: traced, setups: 1,
					dir: dir, shardBin: shardBin, spanFile: filepath.Join(dir, "spans.jsonl"),
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range res.notes {
					t.Log(n)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				got := make([]string, 0, len(res.Metrics))
				for n := range res.Metrics {
					got = append(got, n)
				}
				sort.Strings(got)
				equalNames(t, "emitted metrics", got, defNames(defs))
			})
		}
	}
}
