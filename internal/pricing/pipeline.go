// pipeline.go composes the price model into quote-time stages. The
// static paper model (pricing.go) stays the base of every fare; a
// Pipeline runs it through an ordered stage list — base ratio, then
// the surge multiplier when surge is on — and resolves the
// result into an immutable FareContext that is snapshotted into the
// request at submit time. Everything downstream of a quote (skyline
// pruning floors, option prices, re-probe repricing, WAL replay)
// prices through that one context instead of reaching back into the
// model, so the fare of a request can never drift between the quote
// and its lifecycle.
package pricing

// Quote is the in-flight pricing state a Pipeline threads through its
// stages. Stages mutate it; Resolve freezes the outcome into a
// FareContext.
type Quote struct {
	// Riders is the request's rider count n.
	Riders int
	// TripDist is the direct trip distance dist(s,d) in metres.
	TripDist float64
	// Cell is the origin grid cell, or -1 when the caller has no cell
	// (surge disabled, or cell-less entry points).
	Cell int32
	// BaseRatio is the paper ratio f_n; set by the base stage.
	BaseRatio float64
	// Multiplier is the combined stage multiplier (1 = no adjustment).
	Multiplier float64
	// Epoch is the surge epoch the multiplier was read at (0 = none).
	Epoch uint64
}

// FareContext is the immutable per-quote pricing snapshot: the
// resolved effective ratio plus the provenance needed to audit it
// (which cell's multiplier, at which surge epoch). It is fixed for
// the lifetime of the quote — a surge epoch rolling over mid-match
// cannot change a price already being searched under, which is what
// keeps skyline pruning sound.
type FareContext struct {
	// BaseRatio is the paper's f_n for the rider count.
	BaseRatio float64
	// Multiplier is the combined quote-time multiplier (1 = static fare).
	Multiplier float64
	// Ratio is the effective ratio all prices use. When Multiplier is
	// exactly 1 it is BaseRatio itself — not BaseRatio×1 — so a
	// surge-disabled pipeline is bit-identical to the static model.
	Ratio float64
	// Cell is the origin cell the multiplier was read from (-1 = none).
	Cell int32
	// Epoch is the surge epoch the multiplier was read at (0 = none).
	Epoch uint64
}

// MinPrice returns the zero-detour floor f·tripDist — the pruning
// floor the matchers terminate on.
func (fc FareContext) MinPrice(tripDist float64) float64 {
	return fc.Ratio * tripDist
}

// Stage is one quote-time pricing step. Stages run in pipeline order
// and mutate the Quote in place.
type Stage interface {
	// Apply folds the stage into the quote.
	Apply(q *Quote)
}

// Pipeline is an ordered stage list resolved per quote. A Pipeline is
// immutable after construction and safe for concurrent Resolve calls
// (stages must be too; the built-in ones are).
type Pipeline struct {
	stages []Stage
}

// NewPipeline builds a pipeline running the given stages in order.
func NewPipeline(stages ...Stage) *Pipeline {
	return &Pipeline{stages: stages}
}

// Resolve runs the stages over one quote and freezes the result. cell
// is the request's origin grid cell (-1 when unknown); tripDist is
// dist(s,d).
func (p *Pipeline) Resolve(riders int, tripDist float64, cell int32) FareContext {
	q := Quote{Riders: riders, TripDist: tripDist, Cell: cell, Multiplier: 1}
	for _, st := range p.stages {
		st.Apply(&q)
	}
	ratio := q.BaseRatio
	if q.Multiplier != 1 {
		ratio = q.BaseRatio * q.Multiplier
	}
	return FareContext{
		BaseRatio:  q.BaseRatio,
		Multiplier: q.Multiplier,
		Ratio:      ratio,
		Cell:       q.Cell,
		Epoch:      q.Epoch,
	}
}

// baseStage seeds the quote with the static model's ratio.
type baseStage struct{ m Model }

func (b baseStage) Apply(q *Quote) { q.BaseRatio = b.m.Ratio(q.Riders) }

// Base returns the stage computing the paper ratio f_n from the model.
// Every pipeline starts with it.
func Base(m Model) Stage { return baseStage{m: m} }

// MultiplierSource yields a per-cell surge multiplier and the epoch it
// was computed at. Implemented by surge.Tracker; an interface here
// keeps the pricing package free of the tracker's dependencies.
type MultiplierSource interface {
	Multiplier(cell int32) (mult float64, epoch uint64)
}

// surgeStage scales the quote by the origin cell's surge multiplier.
type surgeStage struct{ src MultiplierSource }

func (s surgeStage) Apply(q *Quote) {
	if q.Cell < 0 {
		return
	}
	mult, epoch := s.src.Multiplier(q.Cell)
	q.Epoch = epoch
	if mult != 1 {
		q.Multiplier *= mult
	}
}

// Surge returns the stage applying src's per-cell multiplier to the
// quote. Cells the source does not surge leave the quote untouched.
func Surge(src MultiplierSource) Stage { return surgeStage{src: src} }
