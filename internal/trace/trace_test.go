package trace_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ptrider/internal/trace"
)

func sampleTrips() []trace.Trip {
	return []trace.Trip{
		{ID: 1, Time: 0.5, S: 3, D: 9, Riders: 1},
		{ID: 2, Time: 120, S: 7, D: 2, Riders: 4},
		{ID: 3, Time: 86399.25, S: 0, D: 1, Riders: 2},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleTrips()
	if err := trace.WriteCSV(&buf, in); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"wrong header": "a,b,c,d,e\n1,2,3,4,5\n",
		"short header": "id,time\n",
		"bad id":       "id,time,s,d,riders\nx,1,2,3,1\n",
		"bad time":     "id,time,s,d,riders\n1,x,2,3,1\n",
		"bad s":        "id,time,s,d,riders\n1,1,x,3,1\n",
		"bad d":        "id,time,s,d,riders\n1,1,2,x,1\n",
		"bad riders":   "id,time,s,d,riders\n1,1,2,3,x\n",
		"ragged row":   "id,time,s,d,riders\n1,1,2\n",
	}
	for name, input := range cases {
		if _, err := trace.ReadCSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadCSVEmptyBody(t *testing.T) {
	out, err := trace.ReadCSV(strings.NewReader("id,time,s,d,riders\n"))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("got %d trips from empty body", len(out))
	}
}

func TestValidate(t *testing.T) {
	good := trace.Trip{ID: 1, Time: 5, S: 0, D: 3, Riders: 2}
	if err := good.Validate(10); err != nil {
		t.Errorf("good trip rejected: %v", err)
	}
	bad := []trace.Trip{
		{ID: 1, Time: 5, S: 0, D: 0, Riders: 1},  // same endpoints
		{ID: 2, Time: 5, S: -1, D: 3, Riders: 1}, // s out of range
		{ID: 3, Time: 5, S: 0, D: 10, Riders: 1}, // d out of range
		{ID: 4, Time: 5, S: 0, D: 3, Riders: 0},  // no riders
		{ID: 5, Time: -1, S: 0, D: 3, Riders: 1}, // negative time
	}
	for _, tr := range bad {
		if err := tr.Validate(10); err == nil {
			t.Errorf("trip %d accepted: %+v", tr.ID, tr)
		}
	}
}

func TestSortByTime(t *testing.T) {
	trips := []trace.Trip{
		{ID: 1, Time: 50, S: 0, D: 1, Riders: 1},
		{ID: 2, Time: 10, S: 0, D: 1, Riders: 1},
		{ID: 3, Time: 30, S: 0, D: 1, Riders: 1},
	}
	trace.SortByTime(trips)
	if trips[0].ID != 2 || trips[1].ID != 3 || trips[2].ID != 1 {
		t.Fatalf("sorted order = %+v", trips)
	}
}
