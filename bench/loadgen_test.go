package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStall proves the generator cannot hide a stall:
// one request stalls the only connection for 200 ms while riders keep
// falling due every 10 ms, and each of them is charged its wait from
// the moment it was due.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		gap     = 10 * time.Millisecond
		stall   = 200 * time.Millisecond
		stalled = 10
		riders  = 60
	)
	var submits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/requests" {
			n := submits.Add(1)
			if n == stalled+1 {
				time.Sleep(stall)
			}
			fmt.Fprintf(w, `{"id":%d,"options":[]}`, n)
			return
		}
		fmt.Fprint(w, `{"status":"declined"}`)
	}))
	defer srv.Close()

	stream := make([]rider, riders)
	for i := range stream {
		stream[i] = rider{Due: time.Duration(i) * gap, Kind: kindSingle, Trips: []trip{{}}, Body: []byte(`{}`)}
	}
	cl := &client{seed: 1}
	c := newConn(srv.URL, nil)
	defer c.close()
	samples := cl.openLoop(context.Background(), []*conn{c}, stream, declineAll)
	if len(samples) != riders || cl.fails.Load() != 0 {
		t.Fatalf("%d samples, %d failures (%v)", len(samples), cl.fails.Load(), cl.firstErr)
	}

	if got := samples[stalled].submitLatency(); got < stall {
		t.Fatalf("the stalled rider waited %v, want at least %v", got, stall)
	}
	// Rider stalled+k fell due k gaps into the stall and could not start
	// before it ended, so it waited at least the rest of it.
	maxBacklog := 0
	for k := 1; k <= 10; k++ {
		s := samples[stalled+k]
		want := stall - time.Duration(k)*gap - 5*time.Millisecond
		if got := s.submitLatency(); got < want {
			t.Errorf("rider %d behind the stall waited %v, want at least %v", k, got, want)
		}
		if s.slept {
			t.Errorf("rider %d behind the stall is booked as started on time", k)
		}
		maxBacklog = max(maxBacklog, s.backlog)
	}
	if maxBacklog < 10 {
		t.Errorf("largest backlog behind the stall %d, want at least 10", maxBacklog)
	}
	// Before the stall nothing queues for long.
	for i := 1; i < stalled; i++ {
		if got := samples[i].submitLatency(); got > stall/2 {
			t.Errorf("rider %d before the stall waited %v", i, got)
		}
	}
}

func TestValidSkyline(t *testing.T) {
	ok := []optionWire{{PickupMeters: 10, Price: 9}, {PickupMeters: 20, Price: 5}}
	if !validSkyline(ok) || !validSkyline(nil) {
		t.Fatal("a proper skyline was refused")
	}
	for _, bad := range [][]optionWire{
		{{PickupMeters: 20, Price: 5}, {PickupMeters: 10, Price: 9}},
		{{PickupMeters: 10, Price: 9}, {PickupMeters: 20, Price: 9}},
	} {
		if validSkyline(bad) {
			t.Fatalf("%v accepted", bad)
		}
	}
}
