// Package cluster runs the multi-city service over processes: each
// city lives in its own shard process (cmd/ptrider-shard) wrapping one
// WAL-backed core.Engine, and a Gateway — the multicity.Coordinator
// over ShardClients — routes requests to shards by city, fans batches,
// ticks and statistics out concurrently, and runs the cross-city relay
// scheduler over real sockets.
//
// wire.go is the shared vocabulary of the shard RPC surface: the
// request/reply payload structs and the error envelope. The envelope
// is the /v1 one ({"error":{"code","message",...}}), produced by the
// same core.ClassifyError table, so the client decodes a shard error
// (core.ErrorPayload.Err) back into the typed core error the caller
// would have seen from an in-process engine. Anything that fails below
// HTTP — dial errors,
// timeouts, a shard dying mid-response — decodes to
// core.ErrUnavailable, the signal the relay scheduler answers with
// deferred compensation rather than an abort.
//
// Records crossing the wire are sanitised: core.Option.Candidate (the
// kinetic-tree insertion snapshot) never leaves the shard — commits
// happen shard-side by option index, and remote callers only need the
// vehicle, pick-up distance and price.
package cluster

import (
	"ptrider/internal/core"
	"ptrider/internal/fleet"
	"ptrider/internal/geo"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
)

// wireEnvelope is the shard RPC error envelope — the same shape, and
// the same core.ClassifyError payload, the /v1 surface emits.
type wireEnvelope struct {
	Error core.ErrorPayload `json:"error"`
}

// submitWire is the POST /rpc/submit payload. IdemKey makes retries
// safe: the client generates one key per logical submission and reuses
// it across transport retries, and the shard's idempotent submit path
// (core.Engine.SubmitIdem) answers a replay with the original record.
type submitWire struct {
	S           roadnet.VertexID `json:"s"`
	D           roadnet.VertexID `json:"d"`
	Riders      int              `json:"riders"`
	Constraints core.Constraints `json:"constraints"`
	IdemKey     string           `json:"idem_key,omitempty"`
}

// batchWire is the POST /rpc/submit-batch payload: callback-free items
// only — rider choice callbacks cannot cross a socket, so the client
// serves those items one by one (see ShardClient.SubmitRequestBatch).
type batchWire struct {
	Items []submitWire `json:"items"`
}

// batchReply carries one record per batch item, order-preserving, with
// null entries for failed items and the first error enveloped.
type batchReply struct {
	Records []*core.RequestRecord `json:"records"`
	Err     *core.ErrorPayload    `json:"error,omitempty"`
}

// chooseWire is the POST /rpc/choose payload.
type chooseWire struct {
	ID     core.RequestID `json:"id"`
	Option int            `json:"option"`
}

// idWire addresses one request (decline, cancel).
type idWire struct {
	ID core.RequestID `json:"id"`
}

// advanceWire is the POST /rpc/advance payload.
type advanceWire struct {
	Seconds float64 `json:"seconds"`
}

// advanceReply returns the shard clock after the tick plus the
// city-local movement events.
type advanceReply struct {
	Clock  float64       `json:"clock"`
	Events []fleet.Event `json:"events"`
}

// clockReply is the GET /rpc/clock body.
type clockReply struct {
	Clock float64 `json:"clock"`
}

// metaWire is the GET /rpc/meta body: the immutable city description a
// client caches at dial time (plus the fleet size, which the client
// refreshes through its TTL cache for /v1/cities).
type metaWire struct {
	City             string   `json:"city"`
	Vertices         int      `json:"vertices"`
	Vehicles         int      `json:"vehicles"`
	Region           geo.Rect `json:"region"`
	Speed            float64  `json:"speed"`
	MaxWaitSeconds   float64  `json:"max_wait_seconds"`
	MaxPickupSeconds float64  `json:"max_pickup_seconds"`
}

// algoWire is the POST /rpc/algorithm payload.
type algoWire struct {
	Algorithm string `json:"algorithm"`
}

// sanitizeRecord strips the shard-local kinetic candidates from a
// record's options before it crosses the wire (commits are by option
// index, shard-side; the candidate snapshot is meaningless remotely
// and dominates the payload).
func sanitizeRecord(rec *core.RequestRecord) *core.RequestRecord {
	cp := *rec
	if len(cp.Options) > 0 {
		cp.Options = make([]core.Option, len(rec.Options))
		for i, o := range rec.Options {
			o.Candidate = kinetic.Candidate{}
			cp.Options[i] = o
		}
	}
	return &cp
}
