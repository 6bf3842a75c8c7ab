package core_test

// Tests of the dynamic pricing pipeline threaded through the engine:
// surge-off quotes must be bit-identical to the paper's static model,
// surge-on quotes must carry the origin cell's multiplier resolved at
// quote time, and the tracker's epoch state must survive WAL recovery
// both through journal replay and through snapshot restore.

import (
	"fmt"
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/pricing"
	"ptrider/internal/pricing/surge"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
	"ptrider/internal/wal"
)

// hotTiers surge any cell with demand: threshold well below one
// request per epoch, doubling the fare.
func hotTiers() []surge.Tier {
	return []surge.Tier{{MinRatio: 0.0001, Multiplier: 2}}
}

// surgeConfig is the shared surge-on engine config: tiny epochs,
// no smoothing, hair-trigger tiers — every behaviour is observable
// within a couple of ticks.
func surgeConfig() core.Config {
	return core.Config{
		GridCols: 4, GridRows: 4,
		Capacity: 4, MaxWaitSeconds: 600, Sigma: 0.4, MaxPickupSeconds: 1e6,
		SurgeEnabled: true, SurgeEpochSeconds: 10, SurgeAlpha: 1,
		SurgeTiers: hotTiers(),
	}
}

// TestSurgeOffBitIdenticalToStaticModel pins the golden-equivalence
// contract on the serial submit path: with surge disabled, every
// quoted option's price and the record's fare context must equal the
// static paper model bit for bit.
func TestSurgeOffBitIdenticalToStaticModel(t *testing.T) {
	e := latticeEngine(t, 3, 8, 8, core.Config{
		Capacity: 4, MaxWaitSeconds: 600, Sigma: 0.4, MaxPickupSeconds: 1e6,
	})
	e.AddVehiclesUniform(12)
	m := pricing.NewModel(nil)
	rng := rand.New(rand.NewSource(7))
	nv := e.Graph().NumVertices()
	for i := 0; i < 40; i++ {
		s := roadnet.VertexID(rng.Intn(nv))
		d := roadnet.VertexID(rng.Intn(nv))
		for d == s {
			d = roadnet.VertexID(rng.Intn(nv))
		}
		riders := 1 + rng.Intn(3)
		rec, err := e.Submit(s, d, riders)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if rec.FareRatio != m.Ratio(riders) {
			t.Fatalf("req %d: FareRatio %v != static ratio %v", rec.ID, rec.FareRatio, m.Ratio(riders))
		}
		if rec.SurgeMult != 1 || rec.SurgeEpoch != 0 {
			t.Fatalf("req %d: surge provenance on a surge-off engine: %+v", rec.ID, rec)
		}
		for _, o := range rec.Options {
			if want := m.Price(riders, o.Candidate.Delta, rec.SD); o.Price != want {
				t.Fatalf("req %d vehicle %d: price %v != static %v", rec.ID, o.Vehicle, o.Price, want)
			}
		}
	}
}

// TestSurgeIdleIdenticalToSurgeOff runs the same workload against a
// surge-off engine and a surge-enabled engine with no demand pressure
// (default tiers never trip at this load): skylines must be
// byte-identical on both the serial and the batch path — enabling the
// pipeline must cost nothing in fidelity until a cell actually surges.
func TestSurgeIdleIdenticalToSurgeOff(t *testing.T) {
	base := core.Config{
		Capacity: 4, MaxWaitSeconds: 600, Sigma: 0.4, MaxPickupSeconds: 1e6,
	}
	surged := base
	surged.SurgeEnabled = true
	surged.SurgeEpochSeconds = 5

	off := latticeEngine(t, 3, 8, 8, base)
	on := latticeEngine(t, 3, 8, 8, surged)
	off.AddVehiclesUniform(12)
	on.AddVehiclesUniform(12)

	rng := rand.New(rand.NewSource(11))
	nv := off.Graph().NumVertices()
	pair := func() (roadnet.VertexID, roadnet.VertexID) {
		s := roadnet.VertexID(rng.Intn(nv))
		d := roadnet.VertexID(rng.Intn(nv))
		for d == s {
			d = roadnet.VertexID(rng.Intn(nv))
		}
		return s, d
	}
	checkEqual := func(a, b *core.RequestRecord) {
		t.Helper()
		if len(a.Options) != len(b.Options) {
			t.Fatalf("req %d: %d options vs %d", a.ID, len(a.Options), len(b.Options))
		}
		for i := range a.Options {
			oa, ob := a.Options[i], b.Options[i]
			if oa.Vehicle != ob.Vehicle || oa.Price != ob.Price || oa.PickupDist != ob.PickupDist {
				t.Fatalf("req %d option %d: %+v vs %+v", a.ID, i, oa, ob)
			}
		}
		if a.FareRatio != b.FareRatio {
			t.Fatalf("req %d: FareRatio %v vs %v", a.ID, a.FareRatio, b.FareRatio)
		}
	}

	// Serial path, with ticks interleaved so the surge engine crosses
	// epoch boundaries (all multipliers stay 1 under default tiers).
	for i := 0; i < 20; i++ {
		s, d := pair()
		ra, err := off.Submit(s, d, 1+i%3)
		if err != nil {
			t.Fatalf("off submit: %v", err)
		}
		rb, err := on.Submit(s, d, 1+i%3)
		if err != nil {
			t.Fatalf("on submit: %v", err)
		}
		checkEqual(ra, rb)
		if i%5 == 4 {
			if _, err := off.Tick(5); err != nil {
				t.Fatalf("off tick: %v", err)
			}
			if _, err := on.Tick(5); err != nil {
				t.Fatalf("on tick: %v", err)
			}
		}
	}

	// Batch path.
	items := make([]core.BatchItem, 8)
	for i := range items {
		s, d := pair()
		items[i] = core.BatchItem{S: s, D: d, Riders: 1 + i%3, Constraints: core.DefaultConstraints()}
	}
	ra, err := off.SubmitBatch(items)
	if err != nil {
		t.Fatalf("off batch: %v", err)
	}
	rb, err := on.SubmitBatch(items)
	if err != nil {
		t.Fatalf("on batch: %v", err)
	}
	for i := range ra {
		checkEqual(ra[i], rb[i])
	}

	if st := on.SurgeStats(); !st.Enabled || st.ActiveCells != 0 || st.SurgedQuotes != 0 {
		t.Fatalf("idle surge panel = %+v", st)
	}
}

// TestSurgeRaisesQuotesInHotCells drives demand into one cell, crosses
// an epoch boundary, and checks the next quote out of that cell is
// doubled — while a cold cell still quotes the static fare.
func TestSurgeRaisesQuotesInHotCells(t *testing.T) {
	e := latticeEngine(t, 3, 8, 8, surgeConfig())
	e.AddVehiclesUniform(4)

	g := e.Graph()
	hotV := roadnet.VertexID(0)
	coldV := roadnet.VertexID(g.NumVertices() - 1)
	hotCell := e.Grid().CellOf(hotV)
	if coldCell := e.Grid().CellOf(coldV); coldCell == hotCell {
		t.Fatalf("test vertices share cell %d", hotCell)
	}

	// Demand out of the hot cell, then an epoch boundary.
	for i := 0; i < 6; i++ {
		if _, err := e.Submit(hotV, coldV, 1); err != nil {
			t.Fatalf("demand submit: %v", err)
		}
	}
	if _, err := e.Tick(10); err != nil {
		t.Fatalf("tick: %v", err)
	}
	if ep := e.SurgeStats().Epoch; ep != 1 {
		t.Fatalf("epoch %d after first boundary, want 1", ep)
	}

	m := pricing.NewModel(nil)
	hot, err := e.Submit(hotV, coldV, 2)
	if err != nil {
		t.Fatalf("hot submit: %v", err)
	}
	if hot.SurgeMult != 2 || hot.SurgeCell != int32(hotCell) || hot.SurgeEpoch != 1 {
		t.Fatalf("hot quote provenance = mult %v cell %d epoch %d", hot.SurgeMult, hot.SurgeCell, hot.SurgeEpoch)
	}
	if want := m.Ratio(2) * 2; hot.FareRatio != want {
		t.Fatalf("hot FareRatio %v, want %v", hot.FareRatio, want)
	}
	for _, o := range hot.Options {
		if want := hot.FareRatio * (o.Candidate.Delta + hot.SD); o.Price != want {
			t.Fatalf("hot option price %v, want %v", o.Price, want)
		}
	}

	cold, err := e.Submit(coldV, hotV, 2)
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	if cold.SurgeMult != 1 || cold.FareRatio != m.Ratio(2) {
		t.Fatalf("cold quote surged: mult %v ratio %v", cold.SurgeMult, cold.FareRatio)
	}

	st := e.SurgeStats()
	if !st.Enabled || st.ActiveCells < 1 || st.MaxMultiplier != 2 || st.SurgedQuotes < 1 {
		t.Fatalf("surge panel = %+v", st)
	}
	view, err := e.Surge("")
	if err != nil {
		t.Fatalf("surge view: %v", err)
	}
	found := false
	for _, c := range view.Cells {
		if c.Cell == int(hotCell) && c.Multiplier == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("hot cell %d missing from surge view %+v", hotCell, view.Cells)
	}
	if ps, err := e.Params(""); err != nil || !ps.SurgeEnabled || ps.SurgeEpoch != st.Epoch {
		t.Fatalf("params surge fields = %+v (err %v)", ps, err)
	}
}

// TestSurgeQuoteKeepsItsMultiplier checks the FareContext is pinned at
// submit time: a quote taken during a surge keeps pricing under its
// quoted ratio even when the rider chooses after the epoch has rolled
// over and the cell has cooled off.
func TestSurgeQuoteKeepsItsMultiplier(t *testing.T) {
	cfg := surgeConfig()
	cfg.CommitSlack = 10 // commit through quote staleness from the ticks
	e := latticeEngine(t, 3, 8, 8, cfg)
	e.AddVehiclesUniform(6)

	hotV := roadnet.VertexID(0)
	farV := roadnet.VertexID(e.Graph().NumVertices() - 1)
	for i := 0; i < 6; i++ {
		if _, err := e.Submit(hotV, farV, 1); err != nil {
			t.Fatalf("demand submit: %v", err)
		}
	}
	if _, err := e.Tick(10); err != nil {
		t.Fatalf("tick: %v", err)
	}

	rec, err := e.Submit(hotV, farV, 1)
	if err != nil {
		t.Fatalf("surged submit: %v", err)
	}
	if rec.SurgeMult != 2 || len(rec.Options) == 0 {
		t.Fatalf("expected a surged quote with options, got mult %v, %d options", rec.SurgeMult, len(rec.Options))
	}

	// Cool the cell: epochs with no demand drop the multiplier back to
	// 1 (alpha 1 forgets the hot epoch immediately). Two ticks because
	// the surged quote above itself counted as demand for the first.
	for i := 0; i < 2; i++ {
		if _, err := e.Tick(10); err != nil {
			t.Fatalf("cooling tick: %v", err)
		}
	}
	if m := e.SurgeStats().MaxMultiplier; m != 1 {
		t.Fatalf("cell did not cool: max multiplier %v", m)
	}

	if err := e.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	got, err := e.GetRequest(rec.ID)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	// Whether the commit used the quoted schedule or a slack re-probe,
	// the price must be in the quoted (surged) ratio — never the
	// cooled-off live ratio.
	if got.Price < rec.FareRatio*got.SD {
		t.Fatalf("committed price %v below the quoted surged floor %v", got.Price, rec.FareRatio*got.SD)
	}
}

// TestSurgeWALRecovery round-trips the surge state through both
// recovery paths: journal replay (abandoned engine) and snapshot
// restore (closed engine). The recovered tracker must expose the same
// epoch, multipliers and surged-quote count, and quote new requests
// identically to the original.
func TestSurgeWALRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := surgeConfig()
	cfg.Durability = wal.ModeSync
	cfg.WALDir = dir
	cfg.Seed = 3
	g := testnet.Lattice(rand.New(rand.NewSource(3)), 8, 8, 100)

	inj := &wal.Injector{}
	disarm := wal.ArmDir(dir, inj)
	e, err := core.NewEngine(g, cfg)
	disarm()
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e.AddVehiclesUniform(4)
	hotV := roadnet.VertexID(0)
	farV := roadnet.VertexID(g.NumVertices() - 1)
	for i := 0; i < 6; i++ {
		if _, err := e.SubmitRequest(core.SubmitSpec{S: hotV, D: farV, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: fmt.Sprintf("d%d", i)}); err != nil {
			t.Fatalf("demand submit: %v", err)
		}
	}
	if _, err := e.Tick(10); err != nil {
		t.Fatalf("tick: %v", err)
	}
	surgedRec, err := e.SubmitRequest(core.SubmitSpec{S: hotV, D: farV, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: "hot"})
	if err != nil {
		t.Fatalf("surged submit: %v", err)
	}
	if surgedRec.SurgeMult != 2 {
		t.Fatalf("expected surged quote, got mult %v", surgedRec.SurgeMult)
	}
	// Pending mid-epoch demand that must survive recovery too.
	if _, err := e.SubmitRequest(core.SubmitSpec{S: farV, D: hotV, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: "pend"}); err != nil {
		t.Fatalf("pending submit: %v", err)
	}
	want := e.SurgeStats()

	assertRecovered := func(r *core.Engine, path string) {
		t.Helper()
		if !r.Recovered() {
			t.Fatalf("%s: engine did not recover", path)
		}
		got := r.SurgeStats()
		if got != want {
			t.Fatalf("%s: surge panel %+v != %+v", path, got, want)
		}
		rec, err := r.GetRequest(surgedRec.ID)
		if err != nil {
			t.Fatalf("%s: surged request lost: %v", path, err)
		}
		if rec.FareRatio != surgedRec.FareRatio || rec.SurgeMult != 2 || rec.SurgeEpoch != surgedRec.SurgeEpoch {
			t.Fatalf("%s: fare context drifted: %+v", path, rec)
		}
		// A fresh quote out of the hot cell prices under the same
		// multiplier as the original engine would.
		fresh, err := r.SubmitRequest(core.SubmitSpec{S: hotV, D: farV, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: "fresh-" + path})
		if err != nil {
			t.Fatalf("%s: fresh submit: %v", path, err)
		}
		if fresh.SurgeMult != 2 || fresh.SurgeEpoch != want.Epoch {
			t.Fatalf("%s: fresh quote mult %v epoch %d, want 2 @ %d", path, fresh.SurgeMult, fresh.SurgeEpoch, want.Epoch)
		}
	}

	// Path 1: journal replay — the first engine is abandoned without a
	// final snapshot, so recovery replays every record including the
	// opSurge epoch advance.
	inj.Kill()
	r1, err := core.NewEngine(g, cfg)
	if err != nil {
		t.Fatalf("replay recovery: %v", err)
	}
	assertRecovered(r1, "replay")

	// Path 2: snapshot restore — close flushes a final snapshot; the
	// next engine restores it (plus the fresh quote's journal tail).
	if err := r1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r2, err := core.NewEngine(g, cfg)
	if err != nil {
		t.Fatalf("snapshot recovery: %v", err)
	}
	if got := r2.SurgeStats(); got.Epoch != want.Epoch || got.MaxMultiplier != want.MaxMultiplier ||
		got.ActiveCells != want.ActiveCells || got.SurgedQuotes != want.SurgedQuotes+1 {
		// +1: the replay-path engine quoted one more surged request.
		t.Fatalf("snapshot: surge panel %+v (want %+v with one extra surged quote)", got, want)
	}
	if err := r2.Close(); err != nil {
		t.Fatalf("close r2: %v", err)
	}
}

// TestSurgeDisabledRecoverySkipsSurgeRecords checks a journal written
// by a surge-enabled engine still recovers under a surge-off config:
// the opSurge records are skipped and the quoted fares stand as
// journaled.
func TestSurgeDisabledRecoverySkipsSurgeRecords(t *testing.T) {
	dir := t.TempDir()
	cfg := surgeConfig()
	cfg.Durability = wal.ModeSync
	cfg.WALDir = dir
	cfg.Seed = 3
	g := testnet.Lattice(rand.New(rand.NewSource(3)), 8, 8, 100)

	inj := &wal.Injector{}
	disarm := wal.ArmDir(dir, inj)
	e, err := core.NewEngine(g, cfg)
	disarm()
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e.AddVehiclesUniform(4)
	hotV := roadnet.VertexID(0)
	farV := roadnet.VertexID(g.NumVertices() - 1)
	for i := 0; i < 6; i++ {
		if _, err := e.SubmitRequest(core.SubmitSpec{S: hotV, D: farV, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: fmt.Sprintf("d%d", i)}); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	if _, err := e.Tick(10); err != nil {
		t.Fatalf("tick: %v", err)
	}
	hot, err := e.SubmitRequest(core.SubmitSpec{S: hotV, D: farV, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: "hot"})
	if err != nil {
		t.Fatalf("surged submit: %v", err)
	}
	inj.Kill()

	off := cfg
	off.SurgeEnabled = false
	r, err := core.NewEngine(g, off)
	if err != nil {
		t.Fatalf("surge-off recovery: %v", err)
	}
	rec, err := r.GetRequest(hot.ID)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if rec.FareRatio != hot.FareRatio || rec.SurgeMult != hot.SurgeMult {
		t.Fatalf("journaled fare context lost: %+v vs %+v", rec, hot)
	}
	if st := r.SurgeStats(); st.Enabled {
		t.Fatalf("surge-off engine reports surge enabled: %+v", st)
	}
}
