// Package geo provides the planar-geometry primitives used by the road
// network and its grid index: points in a metric plane, axis-aligned
// rectangles, and Euclidean distances.
//
// PTRider embeds the road network in the plane (coordinates in metres)
// so that the Euclidean distance between two vertices is a valid lower
// bound of their network distance whenever every edge weight is at least
// the Euclidean length of the edge. The workload generator guarantees
// that property, and the grid index exploits it.
package geo

import "math"

// Point is a location in the plane. Units are metres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between p and q. It is
// cheaper than Dist and sufficient for comparisons.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner and
// Max the upper-right corner; a Rect is well-formed when Min.X ≤ Max.X
// and Min.Y ≤ Max.Y. The zero Rect is the empty rectangle at the origin.
type Rect struct {
	Min, Max Point
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies in r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point
// (boundary inclusive).
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Expand returns r grown by m on every side. A negative m shrinks r; the
// result may be ill-formed if m is more negative than half the extent.
func (r Rect) Expand(m float64) Rect {
	return Rect{
		Min: Point{r.Min.X - m, r.Min.Y - m},
		Max: Point{r.Max.X + m, r.Max.Y + m},
	}
}

// DistToPoint returns the Euclidean distance from p to the closest point
// of r; zero when r contains p.
func (r Rect) DistToPoint(p Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// BoundingRect returns the smallest Rect containing all pts. It returns
// the zero Rect when pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Min.X {
			r.Min.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		}
		if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	return r
}
