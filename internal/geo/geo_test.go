package geo_test

import (
	"math"
	"testing"
	"testing/quick"

	"ptrider/internal/geo"
)

func TestPointDist(t *testing.T) {
	p := geo.Point{X: 0, Y: 0}
	q := geo.Point{X: 3, Y: 4}
	if d := p.Dist(q); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := p.DistSq(q); d != 25 {
		t.Errorf("DistSq = %v, want 25", d)
	}
	if d := p.Dist(p); d != 0 {
		t.Errorf("Dist to self = %v, want 0", d)
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := geo.Point{X: clamp(ax), Y: clamp(ay)}
		b := geo.Point{X: clamp(bx), Y: clamp(by)}
		c := geo.Point{X: clamp(cx), Y: clamp(cy)}
		if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-9 {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestRectBasics(t *testing.T) {
	r := geo.Rect{Min: geo.Point{X: 0, Y: 1}, Max: geo.Point{X: 4, Y: 3}}
	if r.Width() != 4 || r.Height() != 2 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if r.Center() != (geo.Point{X: 2, Y: 2}) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(geo.Point{X: 0, Y: 1}) || !r.Contains(geo.Point{X: 2, Y: 2}) {
		t.Error("Contains should include boundary and interior")
	}
	if r.Contains(geo.Point{X: 5, Y: 2}) {
		t.Error("Contains included exterior point")
	}
}

func TestRectIntersectsAndUnion(t *testing.T) {
	a := geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 2, Y: 2}}
	b := geo.Rect{Min: geo.Point{X: 1, Y: 1}, Max: geo.Point{X: 3, Y: 3}}
	c := geo.Rect{Min: geo.Point{X: 5, Y: 5}, Max: geo.Point{X: 6, Y: 6}}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping rects should intersect")
	}
	if a.Intersects(c) {
		t.Error("disjoint rects should not intersect")
	}
	// Touching edges count as intersecting.
	d := geo.Rect{Min: geo.Point{X: 2, Y: 0}, Max: geo.Point{X: 4, Y: 2}}
	if !a.Intersects(d) {
		t.Error("edge-touching rects should intersect")
	}
}

func TestRectDistances(t *testing.T) {
	r := geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 2, Y: 2}}
	if d := r.DistToPoint(geo.Point{X: 1, Y: 1}); d != 0 {
		t.Errorf("DistToPoint inside = %v", d)
	}
	if d := r.DistToPoint(geo.Point{X: 5, Y: 6}); d != 5 {
		t.Errorf("DistToPoint corner = %v, want 5", d)
	}
	if d := r.DistToPoint(geo.Point{X: 1, Y: -3}); d != 3 {
		t.Errorf("DistToPoint edge = %v, want 3", d)
	}
}

func TestRectExpand(t *testing.T) {
	r := geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 2, Y: 2}}.Expand(1)
	if r.Min != (geo.Point{X: -1, Y: -1}) || r.Max != (geo.Point{X: 3, Y: 3}) {
		t.Errorf("Expand = %+v", r)
	}
}

func TestBoundingRect(t *testing.T) {
	if r := geo.BoundingRect(nil); r != (geo.Rect{}) {
		t.Errorf("BoundingRect(nil) = %+v, want zero", r)
	}
	pts := []geo.Point{{X: 1, Y: 5}, {X: -2, Y: 3}, {X: 4, Y: -1}}
	r := geo.BoundingRect(pts)
	if r.Min != (geo.Point{X: -2, Y: -1}) || r.Max != (geo.Point{X: 4, Y: 5}) {
		t.Errorf("BoundingRect = %+v", r)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("BoundingRect does not contain %v", p)
		}
	}
}

func TestDistToPointIsLowerBoundOfContainedPoints(t *testing.T) {
	f := func(px, py, qx, qy float64) bool {
		p := geo.Point{X: clamp(px), Y: clamp(py)}
		q := geo.Point{X: clamp(qx), Y: clamp(qy)}
		r := geo.Rect{Min: geo.Point{X: -100, Y: -100}, Max: geo.Point{X: 100, Y: 100}}
		if !r.Contains(q) {
			return true
		}
		return r.DistToPoint(p) <= p.Dist(q)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
