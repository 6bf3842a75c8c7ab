// Package render draws the website interface's map view (paper
// Fig. 4c) as ASCII: the road network's extent as a character raster
// with vehicles, a selected vehicle's trip-schedule stops, and request
// endpoints overlaid. The web demo draws red lines on a slippy map;
// terminals get a raster — the information content (where the fleet is,
// where a taxi is headed) is the same.
package render

import (
	"fmt"
	"strings"

	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
)

// Glyphs used by the renderer, in increasing priority (later entries
// overwrite earlier ones when cells collide).
const (
	GlyphEmpty     = ' '
	GlyphRoad      = '.'
	GlyphVehicle   = 'v'
	GlyphBusy      = 'V' // vehicle with riders onboard
	GlyphPickup    = 'P'
	GlyphDropoff   = 'D'
	GlyphSelected  = '*' // the selected vehicle
	GlyphRequested = 'R' // a request's start vertex
)

// Map is an ASCII raster over a road network's bounding box.
type Map struct {
	g      *roadnet.Graph
	bounds geo.Rect
	w, h   int
	cells  []rune
	prio   []int
}

// NewMap creates a raster of the given character dimensions (both ≥ 2)
// covering the network's bounding box, with every vertex pre-plotted as
// road.
func NewMap(g *roadnet.Graph, width, height int) (*Map, error) {
	if width < 2 || height < 2 {
		return nil, fmt.Errorf("render: map must be at least 2x2 characters")
	}
	m := &Map{
		g:      g,
		bounds: g.Bounds().Expand(1e-9),
		w:      width,
		h:      height,
		cells:  make([]rune, width*height),
		prio:   make([]int, width*height),
	}
	for i := range m.cells {
		m.cells[i] = GlyphEmpty
	}
	for v := 0; v < g.NumVertices(); v++ {
		m.plot(g.Point(roadnet.VertexID(v)), GlyphRoad, 1)
	}
	return m, nil
}

// cellAt maps a point to a raster index.
func (m *Map) cellAt(p geo.Point) int {
	fx := (p.X - m.bounds.Min.X) / m.bounds.Width()
	fy := (p.Y - m.bounds.Min.Y) / m.bounds.Height()
	x := int(fx * float64(m.w))
	// Flip y: row 0 is the top of the map, max Y of the world.
	y := m.h - 1 - int(fy*float64(m.h))
	if x < 0 {
		x = 0
	}
	if x >= m.w {
		x = m.w - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= m.h {
		y = m.h - 1
	}
	return y*m.w + x
}

func (m *Map) plot(p geo.Point, glyph rune, priority int) {
	i := m.cellAt(p)
	if priority >= m.prio[i] {
		m.cells[i] = glyph
		m.prio[i] = priority
	}
}

// PlotVertex draws a glyph at a vertex with the given priority
// (higher priorities overwrite lower ones).
func (m *Map) PlotVertex(v roadnet.VertexID, glyph rune, priority int) {
	m.plot(m.g.Point(v), glyph, priority)
}

// PlotVehicle draws a vehicle at vertex loc; busy vehicles (riders
// onboard) render differently.
func (m *Map) PlotVehicle(loc roadnet.VertexID, busy bool) {
	if busy {
		m.PlotVertex(loc, GlyphBusy, 3)
		return
	}
	m.PlotVertex(loc, GlyphVehicle, 2)
}

// PlotSchedule overlays a selected vehicle's position and its stop
// sequence (pickups and dropoffs).
func (m *Map) PlotSchedule(loc roadnet.VertexID, pickups, dropoffs []roadnet.VertexID) {
	for _, p := range pickups {
		m.PlotVertex(p, GlyphPickup, 4)
	}
	for _, d := range dropoffs {
		m.PlotVertex(d, GlyphDropoff, 4)
	}
	m.PlotVertex(loc, GlyphSelected, 5)
}

// String renders the raster with a border.
func (m *Map) String() string {
	var b strings.Builder
	b.Grow((m.w + 3) * (m.h + 2))
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", m.w))
	b.WriteString("+\n")
	for y := 0; y < m.h; y++ {
		b.WriteByte('|')
		for x := 0; x < m.w; x++ {
			b.WriteRune(m.cells[y*m.w+x])
		}
		b.WriteString("|\n")
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", m.w))
	b.WriteString("+\n")
	return b.String()
}

// Legend describes the glyphs for display next to a map.
func Legend() string {
	return "legend: . road   v idle taxi   V taxi with riders   * selected taxi   P pickup   D dropoff   R request"
}
