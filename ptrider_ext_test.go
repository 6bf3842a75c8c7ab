package ptrider_test

import (
	"bytes"
	"strings"
	"testing"

	"ptrider"
)

func TestNetworkRoundTrip(t *testing.T) {
	net := testCity(t)
	var buf bytes.Buffer
	if err := ptrider.WriteNetwork(&buf, net); err != nil {
		t.Fatalf("WriteNetwork: %v", err)
	}
	net2, err := ptrider.ReadNetwork(&buf)
	if err != nil {
		t.Fatalf("ReadNetwork: %v", err)
	}
	if net2.NumVertices() != net.NumVertices() || net2.NumRoads() != net.NumRoads() {
		t.Fatalf("shape changed: %d/%d vs %d/%d",
			net2.NumVertices(), net2.NumRoads(), net.NumVertices(), net.NumRoads())
	}
	// A system built on the reloaded network behaves identically for a
	// deterministic request.
	sysA, err := ptrider.New(net, ptrider.Config{NumTaxis: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := ptrider.New(net2, ptrider.Config{NumTaxis: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := sysA.Request(3, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sysB.Request(3, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Options) != len(rb.Options) {
		t.Fatalf("option counts differ: %d vs %d", len(ra.Options), len(rb.Options))
	}
	for i := range ra.Options {
		if ra.Options[i].Price != rb.Options[i].Price ||
			ra.Options[i].PickupSeconds != rb.Options[i].PickupSeconds {
			t.Fatalf("option %d differs: %+v vs %+v", i, ra.Options[i], rb.Options[i])
		}
	}
}

func TestReadNetworkRejectsDisconnected(t *testing.T) {
	input := "ptrider-network 1\nv 0 0\nv 1 0\nv 2 0\ne 0 1 1\ne 1 0 1\n"
	if _, err := ptrider.ReadNetwork(bytes.NewReader([]byte(input))); err == nil {
		t.Fatal("disconnected network accepted")
	}
}

// TestNewRejectsOneWayNetwork: the engine's distance memo and batch
// fills treat d(u,v) and d(v,u) as one number, so a network file with a
// one-way road must be refused where it is read, not silently
// misquoted.
func TestNewRejectsOneWayNetwork(t *testing.T) {
	const valid = "ptrider-network 1\nv 0 0\nv 100 0\nv 0 100\n" +
		"e 0 1 100\ne 1 0 100\ne 1 2 150\ne 2 1 150\ne 2 0 100\ne 0 2 100\n"
	net, err := ptrider.ReadNetwork(strings.NewReader(valid))
	if err != nil {
		t.Fatalf("two-way network refused: %v", err)
	}
	if _, err := ptrider.New(net, ptrider.Config{NumTaxis: 1}); err != nil {
		t.Fatalf("New on a two-way network: %v", err)
	}
	oneWay := strings.Replace(valid, "e 0 2 100\n", "", 1)
	if _, err := ptrider.ReadNetwork(strings.NewReader(oneWay)); err == nil || !strings.Contains(err.Error(), "one-way road") {
		t.Fatalf("network missing the reverse of 2→0: err = %v, want the one-way-road error", err)
	}
}

func TestRequestWithConstraints(t *testing.T) {
	sys, err := ptrider.New(testCity(t), ptrider.Config{NumTaxis: 8, Sigma: 0.5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// σ = 0 rider: options exist (empty vehicles serve with no detour).
	req, err := sys.RequestWithConstraints(4, 90, 1, 120, 0)
	if err != nil {
		t.Fatalf("RequestWithConstraints: %v", err)
	}
	if len(req.Options) == 0 {
		t.Fatal("zero-detour request got no options from an idle fleet")
	}
	if err := sys.Choose(req.ID, 0); err != nil {
		t.Fatalf("Choose: %v", err)
	}
	for status := ""; status != "completed"; {
		if _, err := sys.Tick(5); err != nil {
			t.Fatal(err)
		}
		status, _ = sys.RequestStatus(req.ID)
	}
	if f := sys.Stats().AvgDetourFactor; f > 1+1e-9 {
		t.Fatalf("zero-detour rider detoured: factor %v", f)
	}
}
