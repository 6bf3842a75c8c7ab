package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
	"ptrider/internal/wal"
)

// pollCtx is a context that turns done on its k-th Done poll, so a test
// can cut a ring walk after a chosen number of cells.
type pollCtx struct {
	context.Context
	k, polls     int
	open, closed chan struct{}
}

func newPollCtx(k int) *pollCtx {
	c := &pollCtx{Context: context.Background(), k: k, open: make(chan struct{}), closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.polls++; c.polls >= c.k {
		return c.closed
	}
	return c.open
}

func (c *pollCtx) Err() error {
	if c.polls >= c.k {
		return context.Canceled
	}
	return nil
}

// recordIDs lists the ledger's request ids, ascending.
func recordIDs(l *ledger) []RequestID {
	var ids []RequestID
	for _, rec := range ledgerRecords(l) {
		ids = append(ids, rec.ID)
	}
	return ids
}

// TestSubmitAbandonedWhenContextDone cuts a quote's ring walk at its
// third cell: the walk stops there and answers nothing, and the submit
// fails ErrUnavailable without registering, journaling or counting the
// request. The next submit and a restart over the journal both succeed.
func TestSubmitAbandonedWhenContextDone(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(11)), 12, 12, 100)
	cfg := Config{
		Capacity: 4, Seed: 11, Algorithm: AlgoDualSide,
		MaxPickupSeconds: 1e6, Durability: wal.ModeSync, WALDir: t.TempDir(),
	}
	e, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.AddVehiclesUniform(3)
	s, d := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)
	const k = 3
	_, full, err := e.MatchOnce(AlgoDualSide, s, d, 1)
	if err != nil || full.CellsScanned < k+2 {
		t.Fatalf("uncancelled walk scans %d cells (%v); the test needs more than %d", full.CellsScanned, err, k+1)
	}

	spec, _, _, err := e.prepareRequest(s, d, 1, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	var cut MatchStats
	if opts := e.matchers[AlgoDualSide].Match(newPollCtx(k), &spec, &cut); opts != nil || cut.CellsScanned >= full.CellsScanned {
		t.Fatalf("cut walk answered %d options after %d cells, uncancelled %d", len(opts), cut.CellsScanned, full.CellsScanned)
	}

	requests, ids, journaled := e.Stats().Requests, recordIDs(e.led), e.DurabilityStats().Records
	_, err = e.SubmitRequest(SubmitSpec{S: s, D: d, Riders: 1, Ctx: newPollCtx(k)})
	if !errors.Is(err, ErrUnavailable) || !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned submit: %v, want ErrUnavailable wrapping context.Canceled", err)
	}
	if got := e.Stats().Requests; got != requests {
		t.Fatalf("abandoned quote counted: %d requests, was %d", got, requests)
	}
	if got := recordIDs(e.led); len(got) != len(ids) {
		t.Fatalf("abandoned quote registered: ledger %v, was %v", got, ids)
	}
	if got := e.DurabilityStats().Records; got != journaled {
		t.Fatalf("abandoned quote journaled: %d records, was %d", got, journaled)
	}

	rec, err := e.SubmitRequest(SubmitSpec{S: s, D: d, Riders: 1})
	if err != nil || len(rec.Options) == 0 {
		t.Fatalf("next submit: %v, %d options", err, len(rec.Options))
	}
	want := recordIDs(e.led)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer re.Close()
	if got := recordIDs(re.led); len(got) != len(want) || got[len(got)-1] != rec.ID {
		t.Fatalf("recovered ledger %v, want %v", got, want)
	}
	if _, err := re.SubmitRequest(SubmitSpec{S: s, D: d, Riders: 1}); err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
}

// TestBatchAbandonsWavesNotStarted cancels a batch's context from its
// first item's chooser: that item commits, and the items of the run
// after it fail ErrUnavailable, unquoted and uncounted.
func TestBatchAbandonsWavesNotStarted(t *testing.T) {
	e := archiveEngine(t)
	e.AddVehiclesUniform(10)
	nv := roadnet.VertexID(e.Graph().NumVertices())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pickFirst := func([]Option) int { cancel(); return 0 }
	specs := []SubmitSpec{
		{S: 0, D: nv - 1, Riders: 1, Choose: pickFirst, Ctx: ctx},
		{S: 1, D: nv - 2, Riders: 1, Ctx: ctx},
		{S: 2, D: nv - 3, Riders: 1, Ctx: ctx},
	}
	recs, err := e.SubmitRequestBatch(specs)
	if recs[0] == nil || recs[0].Status != StatusAssigned {
		t.Fatalf("first item: %+v, want assigned", recs[0])
	}
	if recs[1] != nil || recs[2] != nil || !errors.Is(err, ErrUnavailable) || !errors.Is(err, context.Canceled) {
		t.Fatalf("items after the cancel: %v %v, %v; want nil, ErrUnavailable", recs[1], recs[2], err)
	}
	if n := e.Stats().Requests; n != 1 {
		t.Fatalf("%d requests counted, want 1", n)
	}
	if ids := recordIDs(e.led); len(ids) != 1 {
		t.Fatalf("ledger %v, want the first item only", ids)
	}
}
