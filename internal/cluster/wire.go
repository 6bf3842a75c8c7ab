// Package cluster runs the multi-city service over processes: each
// city lives in its own shard process (cmd/ptrider-shard) wrapping one
// WAL-backed core.Engine, and a Gateway — the multicity.Coordinator
// over ShardClients — routes requests to shards by city, fans batches,
// ticks and statistics out concurrently, and runs the cross-city relay
// scheduler over real sockets.
//
// wire.go is what the /rpc verbs add to the /v1 vocabulary: the payloads
// of the five verbs /v1 has no twin for, and the error envelope. The
// envelope is the /v1 one ({"error":{"code","message",...}}), produced
// by the same core.ClassifyError table on both surfaces, so the client
// decodes a shard error (core.ErrorPayload.Err) back into the typed core
// error the caller would have seen from an in-process engine. Anything
// that fails below HTTP — dial errors, timeouts, a shard dying
// mid-response — decodes to core.ErrUnavailable, the signal the relay
// scheduler answers with deferred compensation rather than an abort.
package cluster

import (
	"ptrider/internal/core"
	"ptrider/internal/geo"
)

// wireEnvelope is the error envelope of both shard surfaces.
type wireEnvelope struct {
	Error core.ErrorPayload `json:"error"`
}

// idWire is the POST /rpc/cancel payload.
type idWire struct {
	ID core.RequestID `json:"id"`
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
