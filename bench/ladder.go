package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"ptrider/internal/cluster"
	"ptrider/internal/core"
	"ptrider/internal/gridindex"
	"ptrider/internal/kinetic"
	"ptrider/internal/multicity"
	"ptrider/internal/pricing"
	"ptrider/internal/pricing/surge"
	"ptrider/internal/roadnet"
	"ptrider/internal/telemetry"
	"ptrider/internal/wal"
)

// ladder replays one workload's requests serially — one client, each
// call waiting for the last — through every layer in turn: the same
// inputs, one rung deeper each time, a span around every call. A
// rung's self time is its median minus the median of the rung below.
//
// The rungs stand on fixtures of the workload's city shape with every
// layer switched on (journal in async mode, surge stage, telemetry), so
// each layer's cost on these inputs is measured whether or not the
// workload's live deployment uses it: one engine behind a /v1 server,
// an in-process two-city router, and two shard processes behind a
// gateway (twin_cluster's own, otherwise spawned for the ladder).
type ladder struct {
	rn    *runner
	tr    *tracer
	trips []trip // single-city requests, vertex ids local to trip.City

	one    *world // the engine fixture and its server
	twin   *world // the gateway fixture
	router *multicity.Router
	rreg   *telemetry.Registry

	durs map[string][]float64 // per-call nanoseconds by rung
	sink float64              // keeps measured pure calls alive
}

func (l *ladder) close() {
	if l.one != nil {
		l.one.close()
	}
	if l.twin != nil && l.twin != l.rn.wd {
		l.twin.close()
	}
	if l.router != nil {
		_ = l.router.Close() // teardown of a fixture
	}
}

// call times one call of a rung and records its span; i is the
// replayed request's index, which doubles as the trace id. A failed
// call is not a sample.
func (l *ladder) call(rung string, i int, fn func() error) error {
	a := time.Now()
	err := fn()
	b := time.Now()
	if err != nil {
		return fmt.Errorf("ladder %s, request %d: %w", rung, i, err)
	}
	l.tr.record(uint64(i+1), 0, rung, a, b)
	l.durs[rung] = append(l.durs[rung], float64(b.Sub(a)))
	return nil
}

// time is call for a function that cannot fail.
func (l *ladder) time(rung string, i int, fn func()) {
	_ = l.call(rung, i, func() error { fn(); return nil })
}

// loop times reps passes of fn over every trip as one span and books
// the mean per call: for calls too short to time singly.
func (l *ladder) loop(rung string, reps int, fn func(t trip)) {
	a := time.Now()
	for range reps {
		for _, t := range l.trips {
			fn(t)
		}
	}
	b := time.Now()
	l.tr.record(0, 0, rung, a, b)
	l.durs[rung] = []float64{float64(b.Sub(a)) / float64(reps*len(l.trips))}
}

// medUs, medMs and medNs are a rung's median call time.
func (l *ladder) medNs(rung string) float64 { return median(l.durs[rung]) }
func (l *ladder) medUs(rung string) float64 { return l.medNs(rung) / 1e3 }
func (l *ladder) medMs(rung string) float64 { return l.medNs(rung) / 1e6 }

// msOf returns a rung's call times in milliseconds.
func (l *ladder) msOf(rung string) []float64 {
	out := make([]float64, len(l.durs[rung]))
	for i, d := range l.durs[rung] {
		out[i] = d / 1e6
	}
	return out
}

// famHist finds one histogram series of a gathered registry.
func famHist(fams []telemetry.Family, name string, want ...telemetry.Label) telemetry.HistView {
	var out telemetry.HistView
	for _, f := range fams {
		if f.Name != name {
			continue
		}
	series:
		for _, s := range f.Series {
			if s.Hist == nil {
				continue
			}
			for _, w := range want {
				found := false
				for _, l := range s.Labels {
					found = found || l == w
				}
				if !found {
					continue series
				}
			}
			// Several matching series (one per shard, say) pool their
			// sums; the quantile estimate of the busiest stands for all.
			if s.Hist.Count > out.Count {
				out.Q50 = s.Hist.Q50
			}
			out.Sum += s.Hist.Sum
			out.Count += s.Hist.Count
		}
	}
	return out
}

func famSum(fams []telemetry.Family, name string) float64 {
	var v float64
	for _, f := range fams {
		if f.Name == name {
			for _, s := range f.Series {
				v += s.Value
			}
		}
	}
	return v
}

// histMeanSince is the mean observation, in seconds, a histogram took
// between two gathers.
func histMeanSince(before, after telemetry.HistView) float64 {
	return ratio(after.Sum-before.Sum, float64(after.Count-before.Count))
}

const (
	stageFamily = "ptrider_submit_stage_duration_seconds"
	// ladderTicks is how many POST /v1/ticks the tick rung sends, and
	// ladderTickSeconds what each advances.
	ladderTicks       = 30
	ladderTickSeconds = 5
)

func stage(name string) telemetry.Label { return telemetry.Label{Name: "stage", Value: name} }

// ladderMetric is the kinetic rung's distance source: exact distances
// memoised over one searcher, lower bounds from the grid, as the
// engine's own metric supplies them.
type ladderMetric struct {
	s    *roadnet.Searcher
	grid *gridindex.Grid
	memo map[[2]roadnet.VertexID]float64
}

func (m *ladderMetric) Dist(u, v roadnet.VertexID) float64 {
	k := [2]roadnet.VertexID{min(u, v), max(u, v)}
	d, ok := m.memo[k]
	if !ok {
		d = m.s.Dist(u, v)
		m.memo[k] = d
	}
	return d
}

func (m *ladderMetric) LB(u, v roadnet.VertexID) float64 { return m.grid.LB(u, v) }

// newLadder builds the fixtures.
func newLadder(rn *runner, trips []trip) (*ladder, error) {
	cfg := rn.cfg
	l := &ladder{rn: rn, tr: rn.cl.tr, trips: trips, durs: map[string][]float64{}}
	shape := cfg.w.shape
	var err error
	l.one, err = setup(&workload{name: "ladder-engine", shape: shape, wal: true, surge: true},
		filepath.Join(cfg.dir, "ladder-engine"), "")
	if err != nil {
		return nil, err
	}
	l.twin = rn.wd
	if !cfg.w.twin {
		idle := cityShape{width: shape.width, height: shape.height, taxis: shape.taxis}
		l.twin, err = setup(&workload{name: "ladder-twin", shape: idle, twin: true},
			filepath.Join(cfg.dir, "ladder-twin"), cfg.shardBin)
		if err != nil {
			l.close()
			return nil, err
		}
	}
	l.rreg = telemetry.NewRegistry()
	specs := make([]multicity.CitySpec, len(l.twin.graphs))
	for i, g := range l.twin.graphs {
		specs[i] = multicity.CitySpec{
			Name: l.twin.cities[i], Graph: g, Vehicles: shape.taxis,
			Config: core.Config{Algorithm: core.AlgoDualSide, MaxPickupSeconds: pickupCapSeconds, Seed: deploymentSeed + int64(i)},
		}
	}
	l.router, err = multicity.NewWithConfig(specs, multicity.RouterConfig{
		EnableRelay: true, Durability: wal.ModeAsync, WALDir: filepath.Join(cfg.dir, "ladder-router"),
		Telemetry: l.rreg,
	})
	if err != nil {
		l.close()
		return nil, fmt.Errorf("ladder router: %w", err)
	}
	return l, nil
}

// run climbs the ladder. Rungs that leave the fixtures as they found
// them come first; the choice, tick and recovery rungs change or end
// the engine fixture and come last.
func (l *ladder) run() error {
	for _, rung := range []func() error{
		l.roadnetRungs, l.gridRungs, l.kineticRungs, l.pricingRung,
		l.matchRungs, l.submitRungs, l.serviceRung, l.serverRungs, l.batchRungs,
		l.routerRungs, l.clusterRungs, l.relayRungs,
		l.chooseRungs, l.tickRungs, l.walRungs,
	} {
		if err := rung(); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) eng() *core.Engine { return l.one.eng }

// connTo opens a connection to a fixture's server. When the fixture is
// the live deployment its request histogram sees the ladder's calls,
// so the run's cross-check must see them too.
func (l *ladder) connTo(wd *world) *conn {
	if wd == l.rn.wd {
		return newConn(wd.base, &l.rn.log)
	}
	return newConn(wd.base, nil)
}

func (l *ladder) roadnetRungs() error {
	g := l.eng().Graph()
	s := roadnet.NewSearcher(g)
	out := make([]float64, g.NumVertices())
	radius := pickupCapSeconds * l.eng().Speed()
	for i, t := range l.trips {
		l.time("roadnet.Searcher.Dist", i, func() { l.sink += s.Dist(t.S, t.D) })
		l.time("roadnet.Searcher.FillDists", i, func() { s.FillDists(t.S, radius, out) })
	}
	l.rn.res.set("roadnet.dist_us", l.medUs("roadnet.Searcher.Dist"))
	l.rn.res.set("roadnet.fill_us", l.medUs("roadnet.Searcher.FillDists"))
	return nil
}

func (l *ladder) gridRungs() error {
	grid := l.eng().Grid()
	l.loop("gridindex.Grid.LB", 200, func(t trip) { l.sink += grid.LB(t.S, t.D) })
	lists := gridindex.NewVehicleLists(grid.NumCells())
	cells := make([]gridindex.CellID, 2)
	id := gridindex.VehicleID(0)
	l.loop("gridindex.VehicleLists.PlaceNonEmpty", 50, func(t trip) {
		cells[0], cells[1] = grid.CellOf(t.S), grid.CellOf(t.D)
		lists.PlaceNonEmpty(id%512, cells)
		id++
	})
	l.rn.res.set("gridindex.lb_ns", l.medNs("gridindex.Grid.LB"))
	l.rn.res.set("gridindex.list_update_ns", l.medNs("gridindex.VehicleLists.PlaceNonEmpty"))
	return nil
}

// kineticRungs quotes every request against private trees holding one,
// two and three committed requests, and times committing a quote. Each
// timed quote is the second of two, so the distance memo is warm and
// the time is the tree's enumeration alone.
func (l *ladder) kineticRungs() error {
	eng := l.eng()
	m := &ladderMetric{s: roadnet.NewSearcher(eng.Graph()), grid: eng.Grid(), memo: map[[2]roadnet.VertexID]float64{}}
	cfg := eng.Config()
	request := func(id int, t trip) kinetic.Request {
		sd := m.Dist(t.S, t.D)
		return kinetic.Request{
			ID: kinetic.RequestID(id), S: t.S, D: t.D, Riders: t.Riders, SD: sd,
			ServiceLimit: (1 + cfg.Sigma) * sd, WaitBudget: cfg.MaxWaitSeconds * eng.Speed(),
		}
	}
	// loaded returns a tree at the first trip's origin serving held
	// requests, taken from the trips in order from offset on.
	loaded := func(held, offset int) *kinetic.Tree {
		tree := kinetic.New(m, cfg.Capacity, cfg.MaxSchedulePoints, l.trips[0].S, 0)
		for j := 0; tree.NumRequests() < held && j < len(l.trips); j++ {
			req := request(1+j, l.trips[(offset+j)%len(l.trips)])
			if cands := tree.Quote(req); len(cands) > 0 {
				_ = tree.Commit(req, cands[0]) // a refused commit leaves the tree as it was
			}
		}
		return tree
	}
	for held := 1; held <= 3; held++ {
		tree, rung := loaded(held, 0), fmt.Sprintf("kinetic.Tree.Quote/r%d", held)
		for i, t := range l.trips {
			req := request(1000+i, t)
			tree.Quote(req)
			l.time(rung, i, func() { l.sink += float64(len(tree.Quote(req))) })
		}
		l.rn.res.set(fmt.Sprintf("kinetic.quote_r%d_us", held), l.medUs(rung))
	}
	for i, t := range l.trips {
		tree, req := loaded(1, i+1), request(1000+i, t)
		if cands := tree.Quote(req); len(cands) > 0 {
			// A refused commit is no sample; the median is over the rest.
			_ = l.call("kinetic.Tree.Commit", i, func() error { return tree.Commit(req, cands[0]) })
		}
	}
	l.rn.res.set("kinetic.commit_us", l.medUs("kinetic.Tree.Commit"))
	return nil
}

func (l *ladder) pricingRung() error {
	eng := l.eng()
	grid := eng.Grid()
	pipe := pricing.NewPipeline(pricing.Base(pricing.NewModel(nil)),
		pricing.Surge(surge.New(grid.NumCells(), surge.Config{})))
	l.loop("pricing.Pipeline.Resolve", 200, func(t trip) {
		sd := grid.LB(t.S, t.D)
		fc := pipe.Resolve(t.Riders, sd, grid.CellOf(t.S))
		l.sink += fc.MinPrice(sd)
	})
	l.rn.res.set("pricing.resolve_ns", l.medNs("pricing.Pipeline.Resolve")-l.medNs("gridindex.Grid.LB"))
	return nil
}

// matchRungs runs every request through each matcher. The naive scan
// probes the whole fleet, so it gets an eighth of the requests.
func (l *ladder) matchRungs() error {
	eng, res := l.eng(), l.rn.res
	var dual core.MatchStats
	for _, m := range []struct {
		algo  core.Algorithm
		name  string
		every int
	}{{core.AlgoNaive, "naive", 8}, {core.AlgoSingleSide, "single", 1}, {core.AlgoDualSide, "dual", 1}} {
		rung := "core.Engine.MatchOnce/" + m.name
		for i, t := range l.trips {
			if i%m.every != 0 {
				continue
			}
			if err := l.call(rung, i, func() error {
				_, ms, err := eng.MatchOnce(m.algo, t.S, t.D, t.Riders)
				if m.algo == core.AlgoDualSide {
					dual.Verified += ms.Verified
					dual.PrunedVehicles += ms.PrunedVehicles
					dual.CellsScanned += ms.CellsScanned
					dual.Options += ms.Options
					dual.ParallelWidth += ms.ParallelWidth
				}
				return err
			}); err != nil {
				return err
			}
		}
		res.set("core.match_"+m.name+"_us", l.medUs(rung))
	}
	n := float64(len(l.trips))
	res.set("core.match.verified_per_req", float64(dual.Verified)/n)
	res.set("core.match.pruned_per_req", float64(dual.PrunedVehicles)/n)
	res.set("core.match.cells_per_req", float64(dual.CellsScanned)/n)
	res.set("core.match.options_per_req", float64(dual.Options)/n)
	res.set("core.match.width", float64(dual.ParallelWidth)/n)
	return nil
}

// submitRungs replays Engine.Submit and Decline three times: against a
// cold distance memo (counting its misses), warm (the rung's time and
// the engine's own stage histograms), and once more between two
// readings of the allocator's counters.
func (l *ladder) submitRungs() error {
	eng, res := l.eng(), l.rn.res
	n := float64(len(l.trips))
	pass := func(submit, decline string) error {
		for i, t := range l.trips {
			var rec *core.RequestRecord
			if err := l.call(submit, i, func() (err error) { rec, err = eng.Submit(t.S, t.D, t.Riders); return }); err != nil {
				return err
			}
			if err := l.call(decline, i, func() error { return eng.Decline(rec.ID) }); err != nil {
				return err
			}
		}
		return nil
	}
	eng.ResetDistCache()
	calls := eng.DistCalls()
	if err := pass("core.Engine.Submit/cold", "core.Engine.Decline/cold"); err != nil {
		return err
	}
	res.set("core.memo.dist_calls_per_req", float64(eng.DistCalls()-calls)/n)

	before := eng.MetricFamilies()
	if err := pass("core.Engine.Submit", "core.Engine.Decline"); err != nil {
		return err
	}
	after := eng.MetricFamilies()
	res.set("core.submit_us", l.medUs("core.Engine.Submit"))
	res.set("core.decline_us", l.medUs("core.Engine.Decline"))
	res.set("core.memo.warm_vs_cold_ratio", ratio(l.medNs("core.Engine.Submit"), l.medNs("core.Engine.Submit/cold")))
	for _, st := range []string{"quote", "register", "wal_wait"} {
		res.set("core.stage."+st+"_us",
			1e6*histMeanSince(famHist(before, stageFamily, stage(st)), famHist(after, stageFamily, stage(st))))
	}

	ids := make([]core.RequestID, 0, len(l.trips))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, t := range l.trips {
		rec, err := eng.Submit(t.S, t.D, t.Riders)
		if err != nil {
			return err
		}
		ids = append(ids, rec.ID)
	}
	runtime.ReadMemStats(&m1)
	for _, id := range ids {
		if err := eng.Decline(id); err != nil {
			return err
		}
	}
	res.set("core.submit_allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/n)
	res.set("core.submit_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	return nil
}

// bursts cuts the trips into runs of 16, the batch rungs' unit.
func (l *ladder) bursts() [][]trip {
	var out [][]trip
	for i := 0; i+burstSize <= len(l.trips); i += burstSize {
		out = append(out, l.trips[i:i+burstSize])
	}
	return out
}

// batchRungs sends each burst of 16 through Engine.SubmitBatch and,
// one by one, through Submit, both against a cold memo, and compares
// the exact searches each way needed.
func (l *ladder) batchRungs() error {
	eng, res := l.eng(), l.rn.res
	var batchCalls, singleCalls int64
	bursts := l.bursts()
	for b, burst := range bursts {
		items := make([]core.BatchItem, len(burst))
		for i, t := range burst {
			items[i] = core.BatchItem{S: t.S, D: t.D, Riders: t.Riders, Constraints: core.DefaultConstraints()}
		}
		eng.ResetDistCache()
		calls := eng.DistCalls()
		if err := l.call("core.Engine.SubmitBatch", b, func() error { _, err := eng.SubmitBatch(items); return err }); err != nil {
			return err
		}
		batchCalls += eng.DistCalls() - calls

		eng.ResetDistCache()
		calls = eng.DistCalls()
		for _, t := range burst {
			rec, err := eng.Submit(t.S, t.D, t.Riders)
			if err == nil {
				err = eng.Decline(rec.ID)
			}
			if err != nil {
				return err
			}
		}
		singleCalls += eng.DistCalls() - calls
	}
	// Leave the memo as warm as the rungs before found it.
	for _, t := range l.trips {
		rec, err := eng.Submit(t.S, t.D, t.Riders)
		if err == nil {
			err = eng.Decline(rec.ID)
		}
		if err != nil {
			return err
		}
	}
	n := float64(len(bursts) * burstSize)
	res.set("core.batch_us_per_req", l.medUs("core.Engine.SubmitBatch")/burstSize)
	res.set("core.batch.dist_calls_per_req", float64(batchCalls)/n)
	res.set("core.single.dist_calls_per_req", float64(singleCalls)/n)
	res.set("core.batch.coalesce_ratio", ratio(float64(singleCalls), float64(batchCalls)))
	return nil
}

func (l *ladder) serviceRung() error {
	eng := l.eng()
	cons := core.DefaultConstraints()
	for i, t := range l.trips {
		var rec *core.ServiceRecord
		if err := l.call("core.Engine.SubmitRequest", i, func() (err error) {
			rec, err = eng.SubmitRequest(core.SubmitSpec{S: t.S, D: t.D, Riders: t.Riders, Constraints: cons})
			return
		}); err != nil {
			return err
		}
		if err := eng.Decline(rec.ID); err != nil {
			return err
		}
	}
	l.rn.res.set("core.service_submit_us", l.medUs("core.Engine.SubmitRequest"))
	return nil
}

// post sends body to a fixture's POST /v1/requests as one timed call
// of rung, returning the decoded reply.
func (l *ladder) post(c *conn, rung string, i int, body []byte, bytes *int) (recordWire, error) {
	var rec recordWire
	err := l.call(rung, i, func() error {
		code, resp, err := c.do(http.MethodPost, "/v1/requests", body)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("status %d %s: %v", code, resp, err)
		}
		if bytes != nil {
			*bytes += len(resp)
		}
		return json.Unmarshal(resp, &rec)
	})
	return rec, err
}

func postOK(c *conn, path string, body []byte) error {
	code, resp, err := c.do(http.MethodPost, path, body)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("POST %s: status %d %s: %v", path, code, resp, err)
	}
	return nil
}

// serverRungs replays the requests over one connection to the engine
// fixture's /v1 server: singly (twice — once without recording spans,
// which prices the tracing itself), as batch calls of 16, and as
// ledger listings.
func (l *ladder) serverRungs() error {
	res := l.rn.res
	src := &streamSource{graphs: l.one.graphs}
	c := l.connTo(l.one)
	defer c.close()
	bytes := 0
	for _, traced := range []bool{false, true} {
		rung, tr := "POST /v1/requests (untraced)", l.tr
		if traced {
			rung = "POST /v1/requests"
		} else {
			l.tr = nil
		}
		for i, t := range l.trips {
			rec, err := l.post(c, rung, i, src.appendTrip(nil, t), &bytes)
			if err == nil {
				err = postOK(c, idPath(rec.ID, "decline"), nil)
			}
			if err != nil {
				l.tr = tr
				return err
			}
		}
		l.tr = tr
	}
	res.set("server.submit_us", l.medUs("POST /v1/requests"))
	res.set("server.resp_bytes_per_req", float64(bytes)/float64(2*len(l.trips)))
	res.set("trace.overhead_ratio", ratio(l.medNs("POST /v1/requests"), l.medNs("POST /v1/requests (untraced)")))

	for b, burst := range l.bursts() {
		if _, err := l.post(c, "POST /v1/requests (batch of 16)", b, src.batch(0, burst).Body, nil); err != nil {
			return err
		}
	}
	for i := range 20 {
		if err := l.call("GET /v1/requests", i, func() error {
			code, _, err := c.do(http.MethodGet, "/v1/requests?status=declined&limit=50", nil)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("status %d: %v", code, err)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	res.set("server.list_ms", l.medMs("GET /v1/requests"))
	prom, err := scrape(l.one.base)
	if err != nil {
		return err
	}
	res.set("server.http_hist_p50_ms", 1e3*prom.sum("ptrider_http_request_duration_seconds_summary",
		map[string]string{"route": requestsRoute, "quantile": "0.5"}))
	return nil
}

// cityOf names the fixture city a replayed request goes to: its own
// for a two-city workload, alternating otherwise.
func (l *ladder) cityOf(i int, t trip) string {
	if l.rn.cfg.w.twin {
		return l.twin.cities[t.City]
	}
	return l.twin.cities[i%len(l.twin.cities)]
}

func (l *ladder) routerRungs() error {
	cons := core.DefaultConstraints()
	cons.MaxPickupSeconds = pickupCapSeconds
	for i, t := range l.trips {
		var rec *core.ServiceRecord
		if err := l.call("multicity.Router.SubmitRequest", i, func() (err error) {
			rec, err = l.router.SubmitRequest(core.SubmitSpec{City: l.cityOf(i, t), S: t.S, D: t.D, Riders: t.Riders, Constraints: cons})
			return
		}); err != nil {
			return err
		}
		if err := l.router.Decline(rec.ID); err != nil {
			return err
		}
	}
	for i := range ladderTicks {
		if err := l.call("multicity.Router.Advance", i, func() error { _, err := l.router.Advance(ladderTickSeconds); return err }); err != nil {
			return err
		}
	}
	l.rn.res.set("multicity.submit_us", l.medUs("multicity.Router.SubmitRequest"))
	l.rn.res.set("multicity.advance_us", l.medUs("multicity.Router.Advance"))
	return nil
}

// clusterRungs cross the process boundary: a shard client straight to
// a child's /rpc, the gateway's SubmitRequest, and the gateway's /v1
// server over a socket of its own.
func (l *ladder) clusterRungs() error {
	res, twin := l.rn.res, l.twin
	cons := core.DefaultConstraints()
	cons.MaxPickupSeconds = pickupCapSeconds
	clients := make([]*cluster.ShardClient, len(twin.shards))
	for i, sp := range twin.shards {
		sc, err := cluster.Dial(sp.addr, cluster.ClientConfig{})
		if err != nil {
			return err
		}
		defer sc.Close()
		clients[i] = sc
	}
	for i, t := range l.trips {
		sc := clients[i%len(clients)]
		if l.rn.cfg.w.twin {
			sc = clients[t.City]
		}
		if err := l.call("cluster.ShardClient.SubmitIdem+Decline", i, func() error {
			rec, err := sc.SubmitIdem(t.S, t.D, t.Riders, cons, "")
			if err != nil {
				return err
			}
			return sc.Decline(rec.ID)
		}); err != nil {
			return err
		}
	}
	for i, t := range l.trips {
		var rec *core.ServiceRecord
		if err := l.call("cluster.Gateway.SubmitRequest", i, func() (err error) {
			rec, err = twin.gw.SubmitRequest(core.SubmitSpec{City: l.cityOf(i, t), S: t.S, D: t.D, Riders: t.Riders, Constraints: cons})
			return
		}); err != nil {
			return err
		}
		if err := twin.gw.Decline(rec.ID); err != nil {
			return err
		}
	}
	c := l.connTo(twin)
	defer c.close()
	body := func(i int, t trip) []byte {
		return fmt.Appendf(nil, `{"city":%q,"s":%d,"d":%d,"riders":%d,"max_pickup_seconds":%d}`,
			l.cityOf(i, t), t.S, t.D, t.Riders, pickupCapSeconds)
	}
	for i, t := range l.trips {
		rec, err := l.post(c, "POST /v1/requests (gateway)", i, body(i, t), nil)
		if err == nil {
			err = postOK(c, idPath(rec.ID, "decline"), nil)
		}
		if err != nil {
			return err
		}
	}
	res.set("cluster.rpc_submit_us", l.medUs("cluster.ShardClient.SubmitIdem+Decline"))
	res.set("cluster.gateway_submit_us", l.medUs("cluster.Gateway.SubmitRequest"))
	res.set("server.gateway_submit_us", l.medUs("POST /v1/requests (gateway)"))
	fams := twin.gwReg.Gather()
	res.set("cluster.rpc_seconds_p50", famHist(fams, "cluster_rpc_seconds").Q50)
	res.set("cluster.rpc_retries", famSum(fams, "cluster_rpc_retries_total"))
	res.set("cluster.rpc_errors", famSum(fams, "cluster_rpc_errors_total"))
	var rss float64
	for _, sp := range twin.shards {
		rss += sp.rssMB()
	}
	res.set("cluster.shard_rss_mb", rss/float64(len(twin.shards)))
	return nil
}

// relayRungs send an eighth of the requests across the city boundary:
// origin in the first city, destination at the same vertex id of the
// second. Gateway.SubmitRequest quotes the two-leg skyline; every other
// trip commits its first option, the rest decline. Then the same trips
// go through the gateway's /v1 server.
func (l *ladder) relayRungs() error {
	res, twin := l.rn.res, l.twin
	cons := core.DefaultConstraints()
	cons.MaxPickupSeconds = pickupCapSeconds
	relayOf := func(t trip) trip { return trip{S: t.S, D: t.D, Riders: t.Riders, City: 0, DestCity: 1} }
	src := &streamSource{graphs: twin.graphs, coords: true}
	statsBefore := twin.gw.ServiceStats().Relay
	legBefore := famHist(twin.gwReg.Gather(), "ptrider_relay_leg_quote_duration_seconds")
	c := l.connTo(twin)
	defer c.close()
	for i, t := range l.trips {
		if i%8 != 0 {
			continue
		}
		rt := relayOf(t)
		o, d := twin.graphs[0].Point(rt.S), twin.graphs[1].Point(rt.D)
		var rec *core.ServiceRecord
		if err := l.call("cluster.Gateway.SubmitRequest (relay)", i, func() (err error) {
			rec, err = twin.gw.SubmitRequest(core.SubmitSpec{ByCoords: true, Origin: o, Dest: d, Riders: rt.Riders, Constraints: cons})
			return
		}); err != nil {
			return err
		}
		if i%16 == 0 && len(rec.Options) > 0 {
			// A refused commit aborts the trip and is counted by the
			// scheduler (relay.compensations); it does not fail the rung.
			l.time("cluster.Gateway.Choose (relay)", i, func() { _ = twin.gw.Choose(rec.ID, 0) })
		} else if err := twin.gw.Decline(rec.ID); err != nil {
			return err
		}
		wire, err := l.post(c, "POST /v1/requests (relay)", i, src.appendTrip(nil, rt), nil)
		if err == nil {
			err = postOK(c, idPath(wire.ID, "decline"), nil)
		}
		if err != nil {
			return err
		}
	}
	st := twin.gw.ServiceStats().Relay
	res.set("relay.quote_ms", l.medMs("cluster.Gateway.SubmitRequest (relay)"))
	res.set("relay.choose_ms", l.medMs("cluster.Gateway.Choose (relay)"))
	res.set("relay.legs_quoted_per_trip", ratio(float64(st.LegQuotes-statsBefore.LegQuotes), float64(st.Quoted-statsBefore.Quoted)))
	res.set("relay.compensations", float64(st.Aborted-statsBefore.Aborted))
	res.set("relay.leg_quote_ms", 1e3*histMeanSince(legBefore, famHist(twin.gwReg.Gather(), "ptrider_relay_leg_quote_duration_seconds")))
	return nil
}

// chooseRungs commit: a quarter of the requests choose their first
// option through Engine.Choose, the next quarter through POST …/choice.
func (l *ladder) chooseRungs() error {
	eng := l.eng()
	before := famHist(eng.MetricFamilies(), stageFamily, stage("probe_commit"))
	quarter := len(l.trips) / 4
	for i, t := range l.trips[:quarter] {
		rec, err := eng.Submit(t.S, t.D, t.Riders)
		if err != nil {
			return err
		}
		if len(rec.Options) == 0 {
			err = eng.Decline(rec.ID)
		} else {
			err = l.call("core.Engine.Choose", i, func() error { return eng.Choose(rec.ID, 0) })
		}
		if err != nil {
			return err
		}
	}
	after := famHist(eng.MetricFamilies(), stageFamily, stage("probe_commit"))
	l.rn.res.set("core.choose_us", l.medUs("core.Engine.Choose"))
	l.rn.res.set("core.stage.probe_commit_us", 1e6*histMeanSince(before, after))

	src := &streamSource{graphs: l.one.graphs}
	c := l.connTo(l.one)
	defer c.close()
	for i, t := range l.trips[quarter : 2*quarter] {
		code, resp, err := c.do(http.MethodPost, "/v1/requests", src.appendTrip(nil, t))
		var rec recordWire
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(resp, &rec)
		}
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("ladder choice rung: submit status %d: %v", code, err)
		}
		if len(rec.Options) == 0 {
			err = postOK(c, idPath(rec.ID, "decline"), nil)
		} else {
			err = l.call("POST /v1/requests/{id}/choice", i, func() error { return postOK(c, idPath(rec.ID, "choice"), []byte(`{"option":0}`)) })
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// tickRungs advance the engine fixture, now carrying the chosen trips,
// through POST /v1/ticks and read the fleet's own tick panel.
func (l *ladder) tickRungs() error {
	eng, res := l.eng(), l.rn.res
	c := l.connTo(l.one)
	defer c.close()
	body := fmt.Appendf(nil, `{"seconds":%d}`, ladderTickSeconds)
	for i := range ladderTicks {
		if err := l.call("POST /v1/ticks", i, func() error { return postOK(c, "/v1/ticks", body) }); err != nil {
			return err
		}
	}
	tick := eng.Stats().Tick
	res.set("fleet.tick_ms", tick.AvgWallMs)
	res.set("fleet.step_us_per_vehicle", 1e3*tick.AvgWallMs/float64(eng.NumVehicles()))
	res.set("fleet.events_per_tick", tick.AvgEvents)
	shard := famHist(eng.MetricFamilies(), "ptrider_tick_shard_duration_seconds")
	res.set("fleet.tick_shard_ms", 1e3*ratio(shard.Sum, float64(shard.Count)))
	return nil
}

// walRungs read the journal's own counters, then end the engine
// fixture: close it, re-open its journal directory and time that.
func (l *ladder) walRungs() error {
	eng, res := l.eng(), l.rn.res
	st := eng.Stats()
	d := st.Durability
	appendHist := famHist(eng.MetricFamilies(), "ptrider_wal_append_duration_seconds")
	res.set("wal.append_us", 1e6*ratio(appendHist.Sum, float64(appendHist.Count)))
	res.set("wal.fsync_ms", d.AvgFsyncMicros/1e3)
	res.set("wal.records_per_fsync", ratio(float64(d.Records), float64(d.Fsyncs)))
	res.set("wal.bytes_per_req", ratio(float64(d.Bytes), float64(st.Requests)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = l.one.srv.Shutdown(ctx) // the engine is closed next either way
	cancel()
	l.one.srv = nil
	recoverMs, err := checkRecovery(l.one)
	if err != nil {
		return fmt.Errorf("ladder recovery: %w", err)
	}
	res.set("wal.recover_ms", recoverMs)
	return nil
}

// tracedRest finishes a traced run after its short phase A: the live
// deployment's quality counters, phase B's rate steps, the ladder.
func (rn *runner) tracedRest(ctx context.Context, lv *live, src *streamSource) error {
	cfg, res := rn.cfg, rn.res
	rn.stopTicks() // the steps and the ladder run with time standing still
	rn.reportLive(lv, 0)

	// Phase B: the workload's single-city requests at fixed rates above
	// the reference, every quote declined.
	slo := 0.0
	for k, rate := range stepRates {
		purpose := purposeSteps + int64(k)
		dues := poissonDues(cfg.rngFor(purpose), float64(rate), cfg.phase(shareStepB))
		riders := cfg.closedTrips(src, purpose+int64(len(stepRates)), len(dues))
		for i, due := range dues {
			riders[i].Due = due
		}
		samples := rn.openPhase(ctx, riders, declineAll)
		step := live{samples: samples}
		p99 := quantile(step.submitMs(0), 0.99)
		res.set(fmt.Sprintf("load.rate_%d.submit_p99_ms", rate), p99)
		// A step holds when it meets the latency limit and ends with no
		// more riders waiting than there are connections.
		tail := 0
		if len(samples) > 0 {
			tail = samples[len(samples)-1].backlog
		}
		if p99 <= cfg.w.sloMs && tail <= len(rn.conns) {
			slo = float64(rate)
		}
	}
	res.set("load.slo_rate_rps", slo)
	rn.closedPhase(ctx, src, cfg.phase(shareTracedC))

	st := rn.wd.stats()
	res.set("core.choose_stale_ratio", ratio(float64(st.CommitStale), float64(st.CommitStale+st.Assigned)))
	res.set("core.reprobes", float64(st.Reprobes))
	res.set("core.assigned_ratio", ratio(float64(st.Assigned), float64(st.Requests)))
	res.set("core.sharing_rate", st.SharingRate)
	res.set("core.detour_factor", st.AvgDetourFactor)
	res.set("core.ledger_records", float64(st.Requests))
	res.set("pricing.surged_quote_ratio", ratio(float64(st.Surge.SurgedQuotes), float64(st.Requests)))
	res.set("pricing.active_cells", float64(st.Surge.ActiveCells))

	n := int(math.Round(ladderPerSecond * cfg.seconds))
	trips := singlesOf(lv.riders)
	for _, r := range cfg.closedTrips(src, purposeLadder, n) {
		trips = append(trips, r.Trips...)
	}
	lad, err := newLadder(rn, trips[:n])
	if err != nil {
		return err
	}
	defer lad.close()
	if err := lad.run(); err != nil {
		return err
	}

	// Where the workload's own traffic held no such operation, reportLive
	// booked nothing and the ladder's /v1 rung of the same call stands in.
	for _, op := range liveOps {
		for _, q := range op.quantiles {
			if _, live := res.values[q.name]; !live {
				res.set(q.name, quantile(lad.msOf(op.rung), q.p))
			}
		}
	}
	return nil
}
