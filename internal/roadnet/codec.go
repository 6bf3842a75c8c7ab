package roadnet

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ptrider/internal/geo"
)

// The network text format is line-oriented and self-describing:
//
//	ptrider-network 1
//	v <x> <y>          one line per vertex, id = line order
//	e <u> <v> <w>      one half-edge per line
//
// A road appears as two e-lines, one per direction, exactly as its
// half-edges sit in the Graph, so a graph reads back bit for bit. It
// exists so generated cities can be saved once and replayed across
// experiment runs, so a gateway can fetch a shard's city, and so
// external networks can be imported.

const codecHeader = "ptrider-network 1"

// WriteGraph serialises g.
func WriteGraph(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, codecHeader); err != nil {
		return err
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		p := g.Point(VertexID(v))
		if _, err := fmt.Fprintf(bw, "v %s %s\n",
			strconv.FormatFloat(p.X, 'g', -1, 64),
			strconv.FormatFloat(p.Y, 'g', -1, 64)); err != nil {
			return err
		}
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Out(VertexID(v)) {
			if _, err := fmt.Fprintf(bw, "e %d %d %s\n", v, e.To,
				strconv.FormatFloat(e.Weight, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadGraph parses a network written by WriteGraph. It is where a
// network from outside the program comes in, so beyond Build's checks
// it refuses one whose half-edges do not pair up: every (u, v, w) needs
// its (v, u, w), at the weight as rounded to the distance grid.
func ReadGraph(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("roadnet: empty network file")
	}
	if strings.TrimSpace(sc.Text()) != codecHeader {
		return nil, fmt.Errorf("roadnet: bad header %q", sc.Text())
	}
	b := NewBuilder(0, 0)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "v":
			if len(fields) != 3 {
				return nil, fmt.Errorf("roadnet: line %d: vertex needs 2 coordinates", line)
			}
			x, err1 := strconv.ParseFloat(fields[1], 64)
			y, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad coordinates", line)
			}
			b.AddVertex(geo.Point{X: x, Y: y})
		case "e":
			if len(fields) != 4 {
				return nil, fmt.Errorf("roadnet: line %d: edge needs tail, head, weight", line)
			}
			u, err1 := strconv.ParseInt(fields[1], 10, 32)
			v, err2 := strconv.ParseInt(fields[2], 10, 32)
			w, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad edge", line)
			}
			b.addHalfEdge(VertexID(u), VertexID(v), w)
		default:
			return nil, fmt.Errorf("roadnet: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if !g.symmetric() {
		return nil, fmt.Errorf("roadnet: network has a one-way road: a half-edge lacks its reverse at equal weight")
	}
	return g, nil
}
