package render_test

import (
	"math/rand"
	"strings"
	"testing"

	"ptrider/internal/render"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

func newMap(t *testing.T, w, h int) (*roadnet.Graph, *render.Map) {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 6, 6, 100)
	m, err := render.NewMap(g, w, h)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	return g, m
}

func TestNewMapValidation(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 3, 3, 100)
	if _, err := render.NewMap(g, 1, 10); err == nil {
		t.Error("1-wide map accepted")
	}
}

func TestMapShowsRoadsAndBorder(t *testing.T) {
	_, m := newMap(t, 30, 15)
	s := m.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 17 {
		t.Fatalf("map has %d lines, want 17", len(lines))
	}
	if !strings.HasPrefix(lines[0], "+---") || !strings.HasPrefix(lines[16], "+---") {
		t.Fatal("missing border")
	}
	if !strings.Contains(s, string(render.GlyphRoad)) {
		t.Fatal("no road glyphs plotted")
	}
	for _, l := range lines[1:16] {
		if len([]rune(l)) != 32 {
			t.Fatalf("ragged line %q", l)
		}
	}
}

func TestVehiclePriorities(t *testing.T) {
	_, m := newMap(t, 40, 20)
	m.PlotVehicle(0, false)
	if !strings.Contains(m.String(), string(render.GlyphVehicle)) {
		t.Fatal("idle vehicle not drawn")
	}
	// A busy vehicle at the same vertex overwrites the idle one.
	m.PlotVehicle(0, true)
	s := m.String()
	if !strings.Contains(s, string(render.GlyphBusy)) {
		t.Fatal("busy vehicle not drawn")
	}
	// The selected-vehicle overlay wins over everything.
	m.PlotSchedule(0, []roadnet.VertexID{7}, []roadnet.VertexID{14})
	s = m.String()
	for _, want := range []rune{render.GlyphSelected, render.GlyphPickup, render.GlyphDropoff} {
		if !strings.Contains(s, string(want)) {
			t.Fatalf("missing glyph %q in\n%s", want, s)
		}
	}
}

func TestLowPriorityDoesNotOverwrite(t *testing.T) {
	_, m := newMap(t, 40, 20)
	m.PlotSchedule(0, nil, nil) // '*' at vertex 0, priority 5
	m.PlotVehicle(0, false)     // priority 2 must lose
	if strings.Contains(m.String(), string(render.GlyphVehicle)) {
		t.Fatal("low-priority glyph overwrote the selection")
	}
}

func TestLegendMentionsAllGlyphs(t *testing.T) {
	l := render.Legend()
	for _, g := range []rune{render.GlyphRoad, render.GlyphVehicle, render.GlyphBusy, render.GlyphSelected, render.GlyphPickup, render.GlyphDropoff} {
		if !strings.Contains(l, string(g)) {
			t.Errorf("legend missing %q", g)
		}
	}
}
