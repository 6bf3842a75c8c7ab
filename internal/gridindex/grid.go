// Package gridindex implements PTRider's road-network index (paper
// §3.2.1): a grid partition of the embedded road network in which every
// cell maintains
//
//	(i)   its border vertices (endpoints of edges that span two cells),
//	(ii)  its vertex list,
//	(iii) a list of the occupied cells sorted by lower-bound distance
//	      (the "ring" that drives single- and dual-side search),
//	(iv)  an empty-vehicle list, and
//	(v)   a non-empty-vehicle list
//
// plus the cell-pair lower-bound matrix. Each matrix entry is the
// shortest distance between the closest pair of border vertices of the
// two cells, a lower bound LB(u,v) for every vertex pair across them,
// in either direction, that needs no shortest-path search. The paper's
// per-vertex border distances (v.min) are not kept: no search here
// reads them.
//
// The static part of the index (Grid) costs 8 B per unordered cell pair
// (the lower triangle of the symmetric matrix) and 2 B per ring entry
// (every occupied cell in every occupied cell's ring): 0.4 MB at 16×16
// cells when all are occupied. A grid holds at most 65,536 cells, the
// range of a ring entry. It is immutable after Build and safe for
// concurrent reads. The dynamic vehicle lists (iv)–(v) live in
// VehicleLists, whose callers synchronise externally.
package gridindex

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
)

// CellID identifies a grid cell, in row-major order: cell (cx, cy) has
// id cy*cols+cx.
type CellID = int32

// NoCell is the sentinel "no cell" value.
const NoCell CellID = -1

// MaxCells is the largest cols × rows Build accepts: ring entries are
// 16-bit cell ids.
const MaxCells = 1 << 16

// Cell is the static per-cell data of the index.
type Cell struct {
	ID       CellID
	Rect     geo.Rect
	Vertices []roadnet.VertexID // vertices whose coordinates fall in Rect
	Borders  []roadnet.VertexID // endpoints of cell-spanning edges
	// Ring holds the id of every non-empty cell, ascending by CellLB
	// from this cell with ties to the lower id; Ring[0] is the cell
	// itself. Readers convert each entry with CellID(e).
	Ring []uint16
}

// Grid is the static road-network index. Build once, read from any
// goroutine.
type Grid struct {
	g          *roadnet.Graph
	cols, rows int
	bounds     geo.Rect
	cellW      float64
	cellH      float64

	cellOf []CellID // per vertex
	cells  []Cell

	// pairs is the lower triangle, diagonal included, of the symmetric
	// numCells×numCells lower-bound matrix, row by row: entry (i, j)
	// with i ≥ j sits at i(i+1)/2 + j. It holds the distance between
	// the closest border pair of the two cells, +Inf when neither
	// reaches the other.
	pairs []float64
}

// Config controls Build.
type Config struct {
	// Cols and Rows give the grid resolution. Both must be ≥ 1, and
	// Cols × Rows at most MaxCells.
	Cols, Rows int
}

// Build constructs the index for g. The cell-pair bounds come from
// sweeps of g's contraction hierarchy, contracted here.
func Build(g *roadnet.Graph, cfg Config) (*Grid, error) {
	if err := check(g, cfg); err != nil {
		return nil, err
	}
	return build(g, roadnet.Contract(g), cfg), nil
}

// BuildOn is Build over the hierarchy h of the graph, for a caller that
// queries h too and so contracts the graph once for both.
func BuildOn(h *roadnet.Hierarchy, cfg Config) (*Grid, error) {
	if err := check(h.Graph(), cfg); err != nil {
		return nil, err
	}
	return build(h.Graph(), h, cfg), nil
}

func check(g *roadnet.Graph, cfg Config) error {
	if cfg.Cols < 1 || cfg.Rows < 1 {
		return fmt.Errorf("gridindex: invalid resolution %dx%d", cfg.Cols, cfg.Rows)
	}
	if cfg.Rows > MaxCells/cfg.Cols { // cfg.Cols*cfg.Rows > MaxCells, without overflow
		return fmt.Errorf("gridindex: resolution %dx%d exceeds %d cells", cfg.Cols, cfg.Rows, MaxCells)
	}
	if g.NumVertices() == 0 {
		return fmt.Errorf("gridindex: empty graph")
	}
	return nil
}

func build(g *roadnet.Graph, h *roadnet.Hierarchy, cfg Config) *Grid {
	gr := &Grid{
		g:      g,
		cols:   cfg.Cols,
		rows:   cfg.Rows,
		bounds: g.Bounds().Expand(1e-9),
	}
	gr.cellW = gr.bounds.Width() / float64(cfg.Cols)
	gr.cellH = gr.bounds.Height() / float64(cfg.Rows)
	if gr.cellW <= 0 {
		gr.cellW = 1
	}
	if gr.cellH <= 0 {
		gr.cellH = 1
	}

	gr.assignVertices()
	gr.findBorders()
	gr.computeBounds(h)
	gr.buildRings()
	return gr
}

func (gr *Grid) assignVertices() {
	n := gr.g.NumVertices()
	numCells := gr.cols * gr.rows
	gr.cellOf = make([]CellID, n)
	gr.cells = make([]Cell, numCells)
	for c := 0; c < numCells; c++ {
		cx, cy := c%gr.cols, c/gr.cols
		minPt := geo.Point{
			X: gr.bounds.Min.X + float64(cx)*gr.cellW,
			Y: gr.bounds.Min.Y + float64(cy)*gr.cellH,
		}
		gr.cells[c] = Cell{
			ID:   CellID(c),
			Rect: geo.Rect{Min: minPt, Max: geo.Point{X: minPt.X + gr.cellW, Y: minPt.Y + gr.cellH}},
		}
	}
	for v := 0; v < n; v++ {
		c := gr.cellAt(gr.g.Point(roadnet.VertexID(v)))
		gr.cellOf[v] = c
		gr.cells[c].Vertices = append(gr.cells[c].Vertices, roadnet.VertexID(v))
	}
}

func (gr *Grid) cellAt(p geo.Point) CellID {
	cx := int((p.X - gr.bounds.Min.X) / gr.cellW)
	cy := int((p.Y - gr.bounds.Min.Y) / gr.cellH)
	if cx < 0 {
		cx = 0
	} else if cx >= gr.cols {
		cx = gr.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= gr.rows {
		cy = gr.rows - 1
	}
	return CellID(cy*gr.cols + cx)
}

func (gr *Grid) findBorders() {
	n := gr.g.NumVertices()
	isBorder := make([]bool, n)
	for u := 0; u < n; u++ {
		cu := gr.cellOf[u]
		for _, e := range gr.g.Out(roadnet.VertexID(u)) {
			if gr.cellOf[e.To] != cu {
				isBorder[u] = true
				isBorder[e.To] = true
			}
		}
	}
	for v := 0; v < n; v++ {
		if isBorder[v] {
			c := gr.cellOf[v]
			gr.cells[c].Borders = append(gr.cells[c].Borders, roadnet.VertexID(v))
		}
	}
}

// computeBounds fills the cell-pair triangle with one sweep of h per
// cell, from the cell's border vertices, each border's distance read
// into one buffer reused across cells. Each entry is the distance
// between the closest border pair of its two cells.
func (gr *Grid) computeBounds(h *roadnet.Hierarchy) {
	numCells := len(gr.cells)
	gr.pairs = make([]float64, numCells*(numCells+1)/2)
	for i := range gr.pairs {
		gr.pairs[i] = math.Inf(1)
	}
	widest := 0
	for ci := range gr.cells {
		gr.pairs[pairIndex(ci, ci)] = 0
		widest = max(widest, len(gr.cells[ci].Borders))
	}

	q := h.NewQuery()
	dist := make([]float64, widest)
	for ci := range gr.cells {
		if len(gr.cells[ci].Borders) == 0 {
			// A borderless cell has no edge to or from another cell:
			// its pair bounds stay +Inf, the true distance both ways.
			continue
		}
		q.Sweep(gr.cells[ci].Borders...)
		for cj := 0; cj < ci; cj++ {
			borders := gr.cells[cj].Borders
			q.DistsTo(borders, math.Inf(1), dist[:len(borders)])
			p := &gr.pairs[pairIndex(ci, cj)]
			for _, d := range dist[:len(borders)] {
				*p = min(*p, d)
			}
		}
	}
}

// pairIndex is the position of the unordered pair {i, j} in the
// lower-triangular matrix.
func pairIndex(i, j int) int {
	if i < j {
		i, j = j, i
	}
	return i*(i+1)/2 + j
}

func (gr *Grid) buildRings() {
	occupied := make([]uint16, 0, len(gr.cells))
	for ci := range gr.cells {
		if len(gr.cells[ci].Vertices) > 0 {
			occupied = append(occupied, uint16(ci))
		}
	}
	for ci := range gr.cells {
		if len(gr.cells[ci].Vertices) == 0 {
			continue
		}
		ring := slices.Clone(occupied)
		slices.SortFunc(ring, func(a, b uint16) int {
			if c := cmp.Compare(gr.pairs[pairIndex(ci, int(a))], gr.pairs[pairIndex(ci, int(b))]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		gr.cells[ci].Ring = ring
	}
}

// Graph returns the indexed graph.
func (gr *Grid) Graph() *roadnet.Graph { return gr.g }

// NumCells returns the number of grid cells (cols × rows).
func (gr *Grid) NumCells() int { return len(gr.cells) }

// Dims returns the grid resolution.
func (gr *Grid) Dims() (cols, rows int) { return gr.cols, gr.rows }

// CellOf returns the cell containing vertex v.
func (gr *Grid) CellOf(v roadnet.VertexID) CellID { return gr.cellOf[v] }

// Cell returns the static data of cell id. The result aliases internal
// storage and must not be modified.
func (gr *Grid) Cell(id CellID) *Cell { return &gr.cells[id] }

// NearestVertex returns the vertex closest (Euclidean) to p: the answer
// of Graph.NearestVertex's linear scan, ties to the lowest vertex id
// included, found by searching p's cell and then the square rings of
// cells around it until every cell of a ring lies farther from p than
// the best vertex so far (a ring is never nearer than the one inside
// it). Points outside the bounding box start from the clamped cell.
//
// Skipping a cell by its Rect assumes its vertices lie inside it.
// cellAt divides where Rect multiplies, so a boundary vertex can sit
// one ulp outside; the answer can then differ from the linear scan's
// only between two vertices equidistant from p to within that ulp.
func (gr *Grid) NearestVertex(p geo.Point) roadnet.VertexID {
	c := int(gr.cellAt(p))
	cx, cy := c%gr.cols, c/gr.cols
	best, bestD := roadnet.VertexID(0), math.Inf(1)
	for r := 0; r < max(gr.cols, gr.rows); r++ {
		ringMin := math.Inf(1)
		for y := max(cy-r, 0); y <= min(cy+r, gr.rows-1); y++ {
			step := 1
			if r > 0 && y != cy-r && y != cy+r {
				step = 2 * r // interior row: only the ring's two side columns
			}
			for x := cx - r; x <= cx+r; x += step {
				if x < 0 || x >= gr.cols {
					continue
				}
				cell := &gr.cells[y*gr.cols+x]
				cd := rectDistSq(cell.Rect, p)
				ringMin = min(ringMin, cd)
				if cd > bestD {
					continue
				}
				for _, v := range cell.Vertices {
					if d := gr.g.Point(v).DistSq(p); d < bestD || (d == bestD && v < best) {
						best, bestD = v, d
					}
				}
			}
		}
		if ringMin > bestD {
			break
		}
	}
	return best
}

// rectDistSq is the squared distance from p to the closest point of r,
// in Point.DistSq's arithmetic so the two compare exactly.
func rectDistSq(r geo.Rect, p geo.Point) float64 {
	dx := max(0, r.Min.X-p.X, p.X-r.Max.X)
	dy := max(0, r.Min.Y-p.Y, p.Y-r.Max.Y)
	return dx*dx + dy*dy
}

// CellLB returns the lower bound on the network distance between any
// vertex of cell i and any vertex of cell j, in either direction. It is
// zero when i == j, and CellLB(i, j) == CellLB(j, i).
func (gr *Grid) CellLB(i, j CellID) float64 {
	return gr.pairs[pairIndex(int(i), int(j))]
}

// LB returns a lower bound on dist(u, v), combining the cell-pair bound
// with the Euclidean bound on metric graphs. LB(u, u) is zero and
// LB(u, v) ≤ dist(u, v) always.
func (gr *Grid) LB(u, v roadnet.VertexID) float64 {
	if u == v {
		return 0
	}
	lb := gr.g.EuclidLB(u, v)
	if ci, cj := gr.cellOf[u], gr.cellOf[v]; ci != cj {
		if pb := gr.CellLB(ci, cj); pb > lb {
			lb = pb
		}
	}
	return lb
}
