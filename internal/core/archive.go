// archive.go holds the ledger's finished records — declined and
// completed — once their rider can no longer choose. Retiring a record
// copies every field into compact, pointer-free form: its options
// become triples in an arena, and the record's own slice is dropped.
//
// Records sit in fixed-size pages indexed by id (ids come from one
// counter starting at 1, so the pages fill densely). Their options sit
// as (vehicle, pickup, price) triples in one append-only paged arena.
// Neither kind of page holds a pointer, so the collector never scans
// them.
package core

import (
	"unsafe"

	"ptrider/internal/fleet"
	"ptrider/internal/roadnet"
)

// archRec is a finished RequestRecord without its ID (the slot's
// position) and Options (nopt triples from arena index opt on). Every
// other field keeps its bits. status is zero in an empty slot: a
// finished record is never StatusQuoted.
type archRec struct {
	wait, sigma, price, plannedPickupOdo, pickupOdo, dropoffOdo float64
	sd, submitClock, fareRatio, surgeMult                       float64
	surgeEpoch                                                  uint64
	riders, chosen, opt                                         int
	s, d                                                        roadnet.VertexID
	vehicle                                                     fleet.VehicleID
	surgeCell                                                   int32
	nopt                                                        uint32
	status                                                      uint8
	shared                                                      bool
}

// Both kinds of page fill one 8 KiB allocation.
const (
	archPageBytes = 8 << 10
	recsPerPage   = archPageBytes / int(unsafe.Sizeof(archRec{}))
	optsPerPage   = archPageBytes / (4 + 8 + 8)
)

type recPage [recsPerPage]archRec

// optPage is a slice of the option arena, one array per Option field.
type optPage struct {
	vehicle [optsPerPage]fleet.VehicleID
	pickup  [optsPerPage]float64
	price   [optsPerPage]float64
}

type archive struct {
	pages []*recPage // record id lives in pages[(id-1)/recsPerPage]
	opts  []*optPage // arena index i lives in opts[i/optsPerPage]
	n     int        // records held
	nopt  int        // arena length
}

// put archives a finished record. It only reads rec, Options included.
func (a *archive) put(rec *RequestRecord) {
	i := int(rec.ID - 1)
	for len(a.pages) <= i/recsPerPage {
		a.pages = append(a.pages, nil)
	}
	p := a.pages[i/recsPerPage]
	if p == nil {
		p = new(recPage)
		a.pages[i/recsPerPage] = p
	}
	p[i%recsPerPage] = archRec{
		wait: rec.WaitSeconds, sigma: rec.Sigma, price: rec.Price,
		plannedPickupOdo: rec.PlannedPickupOdo, pickupOdo: rec.PickupOdo, dropoffOdo: rec.DropoffOdo,
		sd: rec.SD, submitClock: rec.SubmitClock, fareRatio: rec.FareRatio, surgeMult: rec.SurgeMult,
		surgeEpoch: rec.SurgeEpoch, riders: rec.Riders, chosen: rec.Chosen, opt: a.nopt,
		s: rec.S, d: rec.D, vehicle: rec.Vehicle, surgeCell: rec.SurgeCell,
		nopt: uint32(len(rec.Options)), status: uint8(rec.Status), shared: rec.Shared,
	}
	for _, o := range rec.Options {
		if a.nopt%optsPerPage == 0 {
			a.opts = append(a.opts, new(optPage))
		}
		op, k := a.opts[a.nopt/optsPerPage], a.nopt%optsPerPage
		op.vehicle[k], op.pickup[k], op.price[k] = o.Vehicle, o.PickupDist, o.Price
		a.nopt++
	}
	a.n++
}

// slot returns request id's archived form, or nil.
func (a *archive) slot(id RequestID) *archRec {
	i := int(id - 1)
	if i < 0 || i/recsPerPage >= len(a.pages) || a.pages[i/recsPerPage] == nil {
		return nil
	}
	if r := &a.pages[i/recsPerPage][i%recsPerPage]; r.status != 0 {
		return r
	}
	return nil
}

// get rebuilds request id's record, or returns nil.
func (a *archive) get(id RequestID) *RequestRecord {
	r := a.slot(id)
	if r == nil {
		return nil
	}
	rec := &RequestRecord{
		ID: id, S: r.s, D: r.d, Riders: r.riders, Status: RequestStatus(r.status),
		WaitSeconds: r.wait, Sigma: r.sigma,
		Options: make([]Option, r.nopt), Chosen: r.chosen,
		Vehicle: r.vehicle, Price: r.price, PlannedPickupOdo: r.plannedPickupOdo,
		PickupOdo: r.pickupOdo, DropoffOdo: r.dropoffOdo, SD: r.sd, Shared: r.shared, SubmitClock: r.submitClock,
		FareRatio: r.fareRatio, SurgeMult: r.surgeMult, SurgeCell: r.surgeCell, SurgeEpoch: r.surgeEpoch,
	}
	for k := range rec.Options {
		j := r.opt + k
		op, m := a.opts[j/optsPerPage], j%optsPerPage
		rec.Options[k] = Option{Vehicle: op.vehicle[m], PickupDist: op.pickup[m], Price: op.price[m]}
	}
	return rec
}
