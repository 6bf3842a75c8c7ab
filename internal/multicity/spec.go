package multicity

import (
	"fmt"
	"strconv"
	"strings"

	"ptrider/internal/core"
	"ptrider/internal/gen"
)

// specGapMeters separates the generated cities' regions in the plane —
// the "sea" between markets. Anything positive keeps the regions
// disjoint; a wide gap makes accidental cross-city snapping impossible.
const specGapMeters = 5000

// BuildFromSpecWithConfig builds a Router over synthetic cities
// described by a compact spec string:
//
//	name:WIDTHxHEIGHT:TAXIS[,name:WIDTHxHEIGHT:TAXIS...]
//
// e.g. "east:40x40:500,west:28x28:200". Cities are generated with the
// standard synthetic generator and laid out left to right with a gap
// between their service regions; every city uses base as its engine
// configuration (per-city tuning is available through the CitySpec
// API). seed+i drives city i's generation and placement; rc carries
// the router-level settings (relay scheduling, most notably).
func BuildFromSpecWithConfig(spec string, base core.Config, seed int64, rc RouterConfig) (*Router, error) {
	parts := strings.Split(spec, ",")
	specs := make([]CitySpec, 0, len(parts))
	originX := 0.0
	for i, part := range parts {
		part = strings.TrimSpace(part)
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("multicity: bad city spec %q (want name:WxH:taxis)", part)
		}
		name := strings.TrimSpace(fields[0])
		dims := strings.SplitN(fields[1], "x", 2)
		if len(dims) != 2 {
			return nil, fmt.Errorf("multicity: bad city size %q in %q", fields[1], part)
		}
		width, err1 := strconv.Atoi(strings.TrimSpace(dims[0]))
		height, err2 := strconv.Atoi(strings.TrimSpace(dims[1]))
		taxis, err3 := strconv.Atoi(strings.TrimSpace(fields[2]))
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("multicity: bad numbers in city spec %q", part)
		}
		gcfg := gen.CityConfig{
			Width: width, Height: height,
			RemoveFrac: 0.1,
			OriginX:    originX,
			Seed:       seed + int64(i),
		}
		gcfg = applySpacingDefault(gcfg)
		g, err := gen.GenerateNetwork(gcfg)
		if err != nil {
			return nil, fmt.Errorf("multicity: city %q: %w", name, err)
		}
		cfg := base
		cfg.Seed = seed + int64(i)
		specs = append(specs, CitySpec{
			Name: name, Graph: g, Config: cfg, Vehicles: taxis,
		})
		originX += float64(width)*gcfg.Spacing + specGapMeters
	}
	return NewWithConfig(specs, rc)
}

// applySpacingDefault mirrors gen's internal default so the layout
// offset accounts for the real block size.
func applySpacingDefault(c gen.CityConfig) gen.CityConfig {
	if c.Spacing == 0 {
		c.Spacing = 250
	}
	return c
}
