package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	labels map[string]string
	value  float64
}

// promText is a parsed /metrics scrape, keyed by series name
// (histogram parts keep their _bucket/_sum/_count suffixes).
type promText map[string][]promSample

// parseProm parses the text exposition format the server's /metrics
// endpoint writes. Lines it cannot read are skipped: the scrape is an
// instrument, not an input.
func parseProm(text string) promText {
	out := promText{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], map[string]string(nil)
		if lb := strings.IndexByte(name, '{'); lb >= 0 && strings.HasSuffix(name, "}") {
			labels = parseLabels(name[lb+1 : len(name)-1])
			name = name[:lb]
		}
		out[name] = append(out[name], promSample{labels: labels, value: v})
	}
	return out
}

// parseLabels reads `a="x",b="y"`. Label values in this system's
// exposition (routes, stage names, addresses) never contain quotes.
func parseLabels(s string) map[string]string {
	m := map[string]string{}
	for _, part := range strings.Split(s, `",`) {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			continue
		}
		m[part[:eq]] = strings.Trim(part[eq+1:], `"`)
	}
	return m
}

func matches(labels, want map[string]string) bool {
	for k, v := range want {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every series of name whose labels include want.
func (p promText) sum(name string, want map[string]string) float64 {
	var s float64
	for _, sm := range p[name] {
		if matches(sm.labels, want) {
			s += sm.value
		}
	}
	return s
}

// hist is the count and cumulative buckets of a histogram, summed over
// every series matching want.
type hist struct {
	bounds []float64 // upper bounds, +Inf last
	cum    []float64
	count  float64
}

func (p promText) hist(name string, want map[string]string) hist {
	h := hist{count: p.sum(name+"_count", want)}
	byLe := map[float64]float64{}
	for _, sm := range p[name+"_bucket"] {
		if !matches(sm.labels, want) {
			continue
		}
		le := math.Inf(1)
		if s := sm.labels["le"]; s != "+Inf" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				continue
			}
			le = v
		}
		if _, seen := byLe[le]; !seen {
			h.bounds = append(h.bounds, le)
		}
		byLe[le] += sm.value
	}
	sort.Float64s(h.bounds)
	for _, b := range h.bounds {
		h.cum = append(h.cum, byLe[b])
	}
	return h
}

// sub returns h − earlier, bucket by bucket (both from the same series).
func (h hist) sub(earlier hist) hist {
	d := hist{bounds: h.bounds, count: h.count - earlier.count}
	d.cum = make([]float64, len(h.cum))
	for i := range h.cum {
		d.cum[i] = h.cum[i]
		if i < len(earlier.cum) {
			d.cum[i] -= earlier.cum[i]
		}
	}
	return d
}

// bucketOf returns the index of the bucket a value of v seconds falls in.
func (h hist) bucketOf(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds) - 1
}

// medianBucket returns the index of the bucket holding the median
// observation, -1 for an empty histogram.
func (h hist) medianBucket() int {
	if h.count == 0 {
		return -1
	}
	for i, c := range h.cum {
		if c >= h.count/2 {
			return i
		}
	}
	return len(h.cum) - 1
}
