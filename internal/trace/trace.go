// Package trace defines the trip-trace format PTRider's workloads are
// stored in and streamed from — the stand-in for the demo's Shanghai
// taxi trip extract — with a CSV codec and summary statistics.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"ptrider/internal/roadnet"
)

// Trip is one ridesharing request extracted from (or synthesised as) a
// taxi trace.
type Trip struct {
	// ID numbers trips in submission order, starting at 1.
	ID int64 `json:"id"`
	// Time is the submission time in seconds from the start of the day.
	Time float64 `json:"time"`
	// S and D are the start and destination vertices.
	S roadnet.VertexID `json:"s"`
	D roadnet.VertexID `json:"d"`
	// Riders is the group size n.
	Riders int `json:"riders"`
}

// Validate checks a trip against a network size.
func (t Trip) Validate(numVertices int) error {
	if t.S < 0 || int(t.S) >= numVertices || t.D < 0 || int(t.D) >= numVertices {
		return fmt.Errorf("trace: trip %d endpoints (%d,%d) outside [0,%d)", t.ID, t.S, t.D, numVertices)
	}
	if t.S == t.D {
		return fmt.Errorf("trace: trip %d has identical endpoints", t.ID)
	}
	if t.Riders < 1 {
		return fmt.Errorf("trace: trip %d has %d riders", t.ID, t.Riders)
	}
	if t.Time < 0 {
		return fmt.Errorf("trace: trip %d has negative time", t.ID)
	}
	return nil
}

// csvHeader is the canonical column set.
var csvHeader = []string{"id", "time", "s", "d", "riders"}

// WriteCSV writes trips with a header row.
func WriteCSV(w io.Writer, trips []Trip) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := make([]string, 5)
	for _, t := range trips {
		row[0] = strconv.FormatInt(t.ID, 10)
		row[1] = strconv.FormatFloat(t.Time, 'f', -1, 64)
		row[2] = strconv.FormatInt(int64(t.S), 10)
		row[3] = strconv.FormatInt(int64(t.D), 10)
		row[4] = strconv.Itoa(t.Riders)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads trips written by WriteCSV.
func ReadCSV(r io.Reader) ([]Trip, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("trace: header has %d columns, want %d", len(header), len(csvHeader))
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, fmt.Errorf("trace: column %d is %q, want %q", i, header[i], h)
		}
	}
	var trips []Trip
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		trips = append(trips, t)
	}
	return trips, nil
}

func parseRow(row []string) (Trip, error) {
	var t Trip
	id, err := strconv.ParseInt(row[0], 10, 64)
	if err != nil {
		return t, fmt.Errorf("bad id %q", row[0])
	}
	tm, err := strconv.ParseFloat(row[1], 64)
	if err != nil {
		return t, fmt.Errorf("bad time %q", row[1])
	}
	s, err := strconv.ParseInt(row[2], 10, 32)
	if err != nil {
		return t, fmt.Errorf("bad s %q", row[2])
	}
	d, err := strconv.ParseInt(row[3], 10, 32)
	if err != nil {
		return t, fmt.Errorf("bad d %q", row[3])
	}
	riders, err := strconv.Atoi(row[4])
	if err != nil {
		return t, fmt.Errorf("bad riders %q", row[4])
	}
	return Trip{ID: id, Time: tm, S: roadnet.VertexID(s), D: roadnet.VertexID(d), Riders: riders}, nil
}

// Summary aggregates a workload for display and sanity checks.
type Summary struct {
	Count     int
	ByHour    [24]int
	ByRiders  map[int]int
	FirstTime float64
	LastTime  float64
}

// Summarise computes a Summary. DaySeconds scales the hour bucketing
// (0 = 86400).
func Summarise(trips []Trip, daySeconds float64) Summary {
	if daySeconds == 0 {
		daySeconds = 86400
	}
	s := Summary{Count: len(trips), ByRiders: make(map[int]int)}
	for i, t := range trips {
		h := int(t.Time / daySeconds * 24)
		if h < 0 {
			h = 0
		}
		if h > 23 {
			h = 23
		}
		s.ByHour[h]++
		s.ByRiders[t.Riders]++
		if i == 0 || t.Time < s.FirstTime {
			s.FirstTime = t.Time
		}
		if t.Time > s.LastTime {
			s.LastTime = t.Time
		}
	}
	return s
}

// SortByTime sorts trips in place by submission time (stable on ID).
func SortByTime(trips []Trip) {
	sort.SliceStable(trips, func(a, b int) bool { return trips[a].Time < trips[b].Time })
}
