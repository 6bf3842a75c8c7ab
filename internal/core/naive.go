package core

import "context"

// NaiveMatcher is the baseline extended directly from the kinetic-tree
// algorithm (paper §3.3): every vehicle is evaluated by probing its
// kinetic tree with the request; the global skyline filters the
// results. No index pruning is used, so matching cost grows linearly in
// the fleet size — the behaviour the single- and dual-side searches are
// measured against. The probes run as one seeded batch and fold in
// vehicle-id order.
type NaiveMatcher struct {
	ctx *matchContext
}

func newNaiveMatcher(ctx *matchContext) *NaiveMatcher { return &NaiveMatcher{ctx: ctx} }

// Match implements Matcher.
func (m *NaiveMatcher) Match(_ context.Context, spec *ReqSpec, stats *MatchStats) []Option {
	ctx := m.ctx
	before := ctx.metric.DistCalls()
	defer func() { stats.DistCalls += ctx.metric.DistCalls() - before }()

	sc := ctx.getScratch()
	defer ctx.putScratch(sc, stats)
	sky := &sc.sky
	sky.Reset()
	for _, v := range ctx.fleet.Snapshot() {
		if !v.Removed() {
			sc.batch = append(sc.batch, v)
		}
	}
	ctx.flushBatch(sc, spec, sky, stats)
	return skylineOptions(sky, stats)
}
