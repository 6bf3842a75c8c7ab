package main

import (
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"

	"ptrider/internal/cluster"
	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/roadnet"
	"ptrider/internal/wal"
)

// startCityShard serves one city engine as a shard on a test server,
// as cmd/ptrider-shard does over a socket.
func startCityShard(t *testing.T, cc gen.CityConfig) (*httptest.Server, *roadnet.Graph) {
	t.Helper()
	g, err := gen.GenerateNetwork(cc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, core.Config{Capacity: 4, Seed: cc.Seed})
	if err != nil {
		t.Fatal(err)
	}
	eng.AddVehiclesUniform(10)
	ts := httptest.NewServer(cluster.NewShardHandler(eng, cluster.ShardOptions{}))
	t.Cleanup(ts.Close)
	return ts, g
}

// TestGatewayRestartKeepsRelayTrips: with -shards and -wal-dir the
// gateway journals its relay trip ledger, so a gateway restarted over
// the same directory and the same live shards still answers for the
// trip it committed and numbers the next relay trip after it.
func TestGatewayRestartKeepsRelayTrips(t *testing.T) {
	tsA, ga := startCityShard(t, gen.CityConfig{Width: 10, Height: 10, Seed: 1})
	tsB, gb := startCityShard(t, gen.CityConfig{Width: 8, Height: 8, OriginX: 20000, Seed: 2})
	bc := buildConfig{
		shards:   "alpha=" + tsA.URL + ",beta=" + tsB.URL,
		algoName: "dual-side", durability: wal.ModeSync, walDir: t.TempDir(),
	}
	rng := rand.New(rand.NewSource(7))
	// relayQuote quotes one alpha → beta trip between random vertices.
	relayQuote := func(svc core.Service) *core.ServiceRecord {
		t.Helper()
		o := ga.Point(roadnet.VertexID(rng.Intn(ga.NumVertices())))
		d := gb.Point(roadnet.VertexID(rng.Intn(gb.NumVertices())))
		rec, err := svc.SubmitRequest(core.SubmitSpec{
			ByCoords: true, Origin: o, Dest: d, Riders: 1,
			Constraints: core.DefaultConstraints(),
		})
		if err != nil || rec.Relay == nil {
			t.Fatalf("relay quote: %v (%+v)", err, rec)
		}
		return rec
	}

	gw, _, err := buildService(bc)
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	rec := relayQuote(gw)
	if rec.ID != -1 || len(rec.Options) == 0 {
		t.Fatalf("first relay quote: id %d with %d options, want id -1 with options", rec.ID, len(rec.Options))
	}
	if err := gw.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	live, err := gw.GetRequest(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.(interface{ Close() error }).Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	again, _, err := buildService(bc)
	if err != nil {
		t.Fatalf("restarted gateway: %v", err)
	}
	defer again.(interface{ Close() error }).Close()
	got, err := again.GetRequest(-1)
	if err != nil {
		t.Fatalf("committed trip after the restart: %v", err)
	}
	if !reflect.DeepEqual(got, live) {
		t.Fatalf("trip -1 after the restart\n%+v\nwant\n%+v", got, live)
	}
	if next := relayQuote(again); next.ID != -2 {
		t.Fatalf("next relay trip got id %d, want -2", next.ID)
	}
}
