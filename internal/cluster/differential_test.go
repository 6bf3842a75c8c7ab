// differential_test.go runs one seeded operation script against the
// multi-city coordinator in both of its shapes — a multicity.Router
// over two engines in this process and a Gateway over two ShardClients
// dialed to httptest shards wrapping identically seeded engines — and
// requires identical answers: every record (ids, statuses, option
// vehicles, prices and pick-up distances), every tick event and the
// totals of the statistics panel.
//
// The script mixes vertex-addressed and coordinate-addressed submits.
// The coordinates are random points between roads: the engine snaps
// them through its grid index, the client by a scan of the cached
// graph, and both must pick the same vertex. The relay scheduler runs
// at its default gateway count: each city quotes its legs in gateway
// order, so leg ids do not depend on goroutine scheduling.
package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/geo"
	"ptrider/internal/multicity"
	"ptrider/internal/relay"
	"ptrider/internal/roadnet"
)

// diffCity is one city of the differential world; both backends build
// its engine from the same graph, config and fleet seed.
type diffCity struct {
	name     string
	w, h     int
	originX  float64
	seed     int64
	vehicles int
}

var diffCities = []diffCity{
	{"alpha", 10, 10, 0, 1, 10},
	{"beta", 8, 8, 20000, 2, 10},
}

var diffRelay = relay.Config{TransferBufferSeconds: 120}

func diffConfig(c diffCity) core.Config {
	return core.Config{Capacity: 4, Algorithm: core.AlgoDualSide, Seed: c.seed}
}

func diffGraph(t *testing.T, c diffCity) *roadnet.Graph {
	t.Helper()
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: c.w, Height: c.h, OriginX: c.originX, Seed: c.seed})
	if err != nil {
		t.Fatalf("gen %s: %v", c.name, err)
	}
	return g
}

func diffLocal(t *testing.T) core.Service {
	t.Helper()
	specs := make([]multicity.CitySpec, len(diffCities))
	for i, c := range diffCities {
		specs[i] = multicity.CitySpec{Name: c.name, Graph: diffGraph(t, c), Config: diffConfig(c), Vehicles: c.vehicles}
	}
	r, err := multicity.NewWithConfig(specs, multicity.RouterConfig{EnableRelay: true, Relay: diffRelay})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	return r
}

func diffRemote(t *testing.T) core.Service {
	t.Helper()
	addrs := make([]string, len(diffCities))
	for i, c := range diffCities {
		eng, err := core.NewEngine(diffGraph(t, c), diffConfig(c))
		if err != nil {
			t.Fatalf("engine %s: %v", c.name, err)
		}
		eng.AddVehiclesUniform(c.vehicles)
		ts, _ := startShard(t, eng, ShardOptions{})
		addrs[i] = c.name + "=" + ts.URL
	}
	gw, err := NewGateway(addrs, GatewayConfig{Client: fastClient(), Relay: diffRelay})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw
}

// recordLine renders what the script compares of one record.
func recordLine(rec *core.ServiceRecord) string {
	if rec == nil {
		return "<nil>"
	}
	line := fmt.Sprintf("id=%d city=%s status=%v s=%d d=%d riders=%d vehicle=%d price=%v relay=%v",
		rec.ID, rec.City, rec.Status, rec.S, rec.D, rec.Riders, rec.Vehicle, rec.Price, rec.Relay != nil)
	for _, o := range rec.Options {
		line += fmt.Sprintf(" [v%d %v %v]", o.Vehicle, o.Price, o.PickupDist)
	}
	return line
}

// runDiffScript drives the seeded script and returns its transcript.
func runDiffScript(t *testing.T, svc core.Service) []string {
	t.Helper()
	var out []string
	say := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	graphs := make([]*roadnet.Graph, len(diffCities))
	for i, c := range diffCities {
		g, err := svc.CityGraph(c.name)
		if err != nil {
			t.Fatalf("graph %s: %v", c.name, err)
		}
		graphs[i] = g
	}
	rng := rand.New(rand.NewSource(99))
	pair := func(ci int) (s, d roadnet.VertexID) {
		for s == d {
			s, d = pickVertex(rng, graphs[ci].NumVertices()), pickVertex(rng, graphs[ci].NumVertices())
		}
		return s, d
	}
	vertexSpec := func(ci int, choose func([]core.Option) int) core.SubmitSpec {
		s, d := pair(ci)
		return core.SubmitSpec{
			City: diffCities[ci].name, S: s, D: d, Riders: 1 + rng.Intn(2),
			Constraints: core.DefaultConstraints(), Choose: choose,
		}
	}
	point := func(ci int) geo.Point {
		b := graphs[ci].Bounds()
		return geo.Point{X: b.Min.X + rng.Float64()*b.Width(), Y: b.Min.Y + rng.Float64()*b.Height()}
	}
	coordSpec := func(oc, dc int, choose func([]core.Option) int) core.SubmitSpec {
		return core.SubmitSpec{
			ByCoords: true, Origin: point(oc), Dest: point(dc), Riders: 1 + rng.Intn(2),
			Constraints: core.DefaultConstraints(), Choose: choose,
		}
	}
	last := func(opts []core.Option) int { return len(opts) - 1 } // -1 declines an empty skyline
	settle := func(rec *core.ServiceRecord, commit bool) {
		var err error
		if commit && len(rec.Options) > 0 {
			err = svc.Choose(rec.ID, 0)
		} else {
			err = svc.Decline(rec.ID)
		}
		got, gerr := svc.GetRequest(rec.ID)
		say("settle err=%v get err=%v %s", err != nil, gerr != nil, recordLine(got))
	}
	advance := func(dt float64) {
		events, err := svc.Advance(dt)
		say("advance %v err=%v clock=%v", dt, err != nil, svc.Clock())
		for _, ev := range events {
			say("  event city=%s kind=%v vehicle=%d request=%d odo=%v", ev.City, ev.Kind, ev.Vehicle, ev.Request, ev.Odo)
		}
	}

	for step := 0; step < 24; step++ {
		spec := vertexSpec(step%2, nil)
		if step%4 == 1 {
			spec = coordSpec(step%2, step%2, nil)
		}
		rec, err := svc.SubmitRequest(spec)
		say("submit err=%v %s", err != nil, recordLine(rec))
		if err == nil && step%3 != 2 { // every third quote stays open
			settle(rec, step%3 == 0)
		}
		switch step {
		case 9:
			rec, err := svc.SubmitRequest(coordSpec(0, 1, nil))
			say("relay submit err=%v %s", err != nil, recordLine(rec))
			if err == nil {
				settle(rec, true)
			}
		case 15:
			recs, err := svc.SubmitRequestBatch([]core.SubmitSpec{
				vertexSpec(0, last), coordSpec(0, 0, nil), vertexSpec(1, last), coordSpec(1, 1, last),
			})
			say("batch err=%v", err != nil)
			for _, rec := range recs {
				say("  %s", recordLine(rec))
			}
		}
		if step%5 == 4 {
			advance(20)
		}
	}
	for i := 0; i < 40; i++ {
		advance(30)
	}

	all, err := svc.Requests("", core.RequestFilter{}, 0)
	say("listing err=%v n=%d", err != nil, len(all))
	for _, rec := range all {
		say("  %s", recordLine(rec))
	}
	st := svc.ServiceStats()
	tot := st.Total
	say("total requests=%d assigned=%d declined=%d completed=%d shared=%d vehicles=%d clock=%v cities=%d",
		tot.Requests, tot.Assigned, tot.Declined, tot.Completed, tot.SharedCompleted, tot.ActiveVehicles, tot.Clock, len(st.Cities))
	say("relay %+v", st.Relay)
	return out
}

func TestCoordinatorDifferentialLocalVsRemote(t *testing.T) {
	local := runDiffScript(t, diffLocal(t))
	remote := runDiffScript(t, diffRemote(t))
	for i := 0; i < len(local) && i < len(remote); i++ {
		if local[i] != remote[i] {
			t.Fatalf("transcripts diverge at line %d:\n local: %s\nremote: %s", i, local[i], remote[i])
		}
	}
	if len(local) != len(remote) {
		t.Fatalf("transcript lengths differ: local %d, remote %d", len(local), len(remote))
	}

	// The script must have exercised what it claims to compare.
	var assigned, relayed, events bool
	for _, line := range local {
		assigned = assigned || (strings.HasPrefix(line, "settle") && strings.Contains(line, "status=assigned"))
		relayed = relayed || (strings.HasPrefix(line, "relay submit err=false") && strings.Contains(line, "relay=true"))
		events = events || strings.Contains(line, "event city=")
	}
	if !assigned || !relayed || !events {
		t.Fatalf("script too thin: assigned=%v relayed=%v events=%v", assigned, relayed, events)
	}
}
