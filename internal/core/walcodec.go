package core

// Binary codec of the journal records. The journal sits on the Submit
// hot path — every registered quote is encoded under led.mu before
// the group-commit append — so records use a hand-rolled little-endian
// layout written into a reusable scratch buffer instead of reflective
// JSON: no allocation, no field-name bytes, ~10× faster to encode.
// Snapshots stay JSON (cold path, and the extra self-description is
// useful when inspecting a WAL directory by hand).
//
// Layout: one tag byte, then the op's fields in declaration order.
// Integers are fixed-width little-endian, floats are IEEE-754 bits,
// strings and slices carry a u32 length prefix. The wal layer already
// frames and checksums each record, so the codec needs no trailer; the
// decoder still bounds-checks every read because a record that passed
// its CRC can be version-skewed, not just corrupt.

import (
	"encoding/binary"
	"fmt"
	"math"

	"ptrider/internal/fleet"
	"ptrider/internal/roadnet"
)

// Record tag bytes, the kind of a walRecord. Append-only: renumbering
// breaks journal replay.
const (
	tagSubmit byte = iota + 1
	tagChoose
	tagDecline
	tagCancel
	tagTick
	tagAddV
	tagRemV
	// tagRetiredSurge was a surge epoch advance. Replay re-derives each
	// epoch from the tick record before it, so the tag is never written
	// or decoded, and an old journal's records of it are skipped.
	tagRetiredSurge
)

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// encodeWALRecord appends rec's encoding to buf and returns the
// extended slice (pass buf[:0] to reuse its capacity).
func encodeWALRecord(buf []byte, rec *walRecord) ([]byte, error) {
	buf = append(buf, rec.Op)
	switch rec.Op {
	case tagSubmit:
		s := rec.Submit
		buf = appendU64(buf, uint64(s.ID))
		buf = appendU32(buf, uint32(s.S))
		buf = appendU32(buf, uint32(s.D))
		buf = appendU32(buf, uint32(s.Riders))
		buf = appendF64(buf, s.Wait)
		buf = appendF64(buf, s.Sigma)
		buf = appendF64(buf, s.SD)
		buf = appendF64(buf, s.Clock)
		buf = appendF64(buf, s.FareRatio)
		buf = appendF64(buf, s.SurgeMult)
		buf = appendU32(buf, uint32(s.SurgeCell))
		buf = appendU64(buf, s.SurgeEpoch)
		buf = appendStr(buf, s.IdemKey)
		buf = appendU32(buf, uint32(len(s.Options)))
		for i := range s.Options {
			o := &s.Options[i]
			buf = appendU32(buf, uint32(o.Vehicle))
			buf = appendF64(buf, o.PickupDist)
			buf = appendF64(buf, o.Price)
		}
		return buf, nil

	case tagChoose:
		c := rec.Choose
		buf = appendU64(buf, uint64(c.ID))
		buf = appendU32(buf, uint32(c.OptionIndex))
		buf = appendU32(buf, uint32(c.Vehicle))
		buf = appendF64(buf, c.Price)
		return appendF64(buf, c.PlannedPickupOdo), nil

	case tagDecline, tagCancel:
		return appendU64(buf, uint64(rec.ReqID)), nil

	case tagTick:
		t := rec.Tick
		buf = appendF64(buf, t.Dt)
		buf = appendU32(buf, uint32(t.N))
		return appendU64(buf, t.Digest), nil

	case tagAddV:
		a := rec.AddV
		buf = appendU64(buf, a.Draws)
		buf = appendU32(buf, uint32(len(a.Locs)))
		for _, l := range a.Locs {
			buf = appendU32(buf, uint32(l))
		}
		return buf, nil

	case tagRemV:
		return appendU32(buf, uint32(rec.Vehicle)), nil
	}
	return nil, fmt.Errorf("core: encode of unknown journal tag %d", rec.Op)
}

// walReader is a bounds-checked cursor over a record payload. Reads
// past the end return zero values and latch err; the caller checks
// once at the end.
type walReader struct {
	b   []byte
	off int
	bad bool
}

func (r *walReader) u8() byte {
	if r.off+1 > len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *walReader) u32() uint32 {
	if r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *walReader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *walReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *walReader) str() string {
	n := int(r.u32())
	if r.bad || n < 0 || r.off+n > len(r.b) {
		r.bad = true
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// count reads a u32 length prefix and sanity-checks it against the
// bytes remaining (each element needs at least elemSize bytes), so a
// skewed record cannot provoke a huge allocation.
func (r *walReader) count(elemSize int) int {
	n := int(r.u32())
	if r.bad || n < 0 || n*elemSize > len(r.b)-r.off {
		r.bad = true
		return 0
	}
	return n
}

// decodeWALRecord parses one journal record payload.
func decodeWALRecord(payload []byte) (walRecord, error) {
	r := walReader{b: payload}
	rec := walRecord{Op: r.u8()}
	switch rec.Op {
	case tagSubmit:
		s := &submitRec{}
		rec.Submit = s
		s.ID = RequestID(r.u64())
		s.S = roadnet.VertexID(r.u32())
		s.D = roadnet.VertexID(r.u32())
		s.Riders = int(r.u32())
		s.Wait = r.f64()
		s.Sigma = r.f64()
		s.SD = r.f64()
		s.Clock = r.f64()
		s.FareRatio = r.f64()
		s.SurgeMult = r.f64()
		s.SurgeCell = int32(r.u32())
		s.SurgeEpoch = r.u64()
		s.IdemKey = r.str()
		if n := r.count(4 + 8 + 8); n > 0 {
			s.Options = make([]Option, n)
			for i := range s.Options {
				o := &s.Options[i]
				o.Vehicle = fleet.VehicleID(r.u32())
				o.PickupDist = r.f64()
				o.Price = r.f64()
			}
		}

	case tagChoose:
		c := &chooseRec{}
		rec.Choose = c
		c.ID = RequestID(r.u64())
		c.OptionIndex = int(int32(r.u32()))
		c.Vehicle = fleet.VehicleID(r.u32())
		c.Price = r.f64()
		c.PlannedPickupOdo = r.f64()

	case tagDecline, tagCancel:
		rec.ReqID = RequestID(r.u64())

	case tagTick:
		t := &tickRec{}
		rec.Tick = t
		t.Dt = r.f64()
		t.N = int(r.u32())
		t.Digest = r.u64()

	case tagAddV:
		a := &addvRec{}
		rec.AddV = a
		a.Draws = r.u64()
		if n := r.count(4); n > 0 {
			a.Locs = make([]roadnet.VertexID, n)
			for i := range a.Locs {
				a.Locs[i] = roadnet.VertexID(r.u32())
			}
		}

	case tagRemV:
		rec.Vehicle = fleet.VehicleID(r.u32())

	default:
		return walRecord{}, fmt.Errorf("core: journal record with unknown tag %d", rec.Op)
	}
	if r.bad || r.off != len(payload) {
		return walRecord{}, fmt.Errorf("core: malformed journal record, tag %d (%d bytes)", rec.Op, len(payload))
	}
	return rec, nil
}
