package core

import (
	"fmt"

	"ptrider/internal/gridindex"
	"ptrider/internal/pricing"
	"ptrider/internal/roadnet"
)

// Substrate is the read-only routing substrate of one engine: the road
// network and its contraction hierarchy, the grid index's static layer
// (cell bounds and sorted cell lists), the pricing model, and the
// derived constants. Everything here is immutable after construction,
// so matchers, kinetic trees and HTTP handlers share it lock-free
// across any number of goroutines; all mutable state lives behind the
// fleet's per-vehicle locks and the engine's coordination core.
type Substrate struct {
	g     *roadnet.Graph
	ch    *roadnet.Hierarchy // every exact distance a match reads
	grid  *gridindex.Grid
	model pricing.Model
	cfg   Config  // effective (defaulted) configuration
	speed float64 // m/s
}

// gridSide is the grid index's cells per side, fixed: quote time does
// not move with the resolution (ARCHITECTURE.md, Substrate).
const gridSide = 16

// newSubstrate builds the immutable layer from a road network and an
// effective (defaulted) configuration.
func newSubstrate(g *roadnet.Graph, cfg Config) (*Substrate, error) {
	if cfg.SpeedKmh <= 0 {
		return nil, fmt.Errorf("core: speed must be positive")
	}
	if cfg.Sigma < 0 {
		return nil, fmt.Errorf("core: sigma must be non-negative")
	}
	// The memo keys a vertex pair in either order and the batch fills
	// answer dist(x, s) by sweeping from s; both read d(u,v) = d(v,u),
	// which holds on every Graph (roadnet). The hierarchy is contracted
	// once, here, for the memo and the grid's bounds.
	ch := roadnet.Contract(g)
	grid, err := gridindex.BuildOn(ch, gridindex.Config{Cols: gridSide, Rows: gridSide})
	if err != nil {
		return nil, err
	}
	model := pricing.NewModel(cfg.PriceRatio)
	if err := model.Validate(cfg.Capacity); err != nil {
		return nil, err
	}
	return &Substrate{
		g:     g,
		ch:    ch,
		grid:  grid,
		model: model,
		cfg:   cfg,
		speed: cfg.SpeedKmh / 3.6,
	}, nil
}
