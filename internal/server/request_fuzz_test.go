package server

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzV1RequestBody fuzzes POST /v1/requests' body decoder, the one
// submit decoder a shard serves its gateway through, in both its single
// and its batch form. decodeSubmission must never panic, and every body
// it accepts must re-encode through NewRequestBody and decode to equal
// SubmitSpecs. The seeds are the named files under
// testdata/fuzz/FuzzV1RequestBody.
func FuzzV1RequestBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		specs, batch, err := decodeSubmission(raw)
		if err != nil {
			return
		}
		bodies := make([]RequestBody, len(specs))
		for i, spec := range specs {
			bodies[i] = NewRequestBody(spec)
		}
		var in any = BatchBody{Requests: bodies}
		if !batch {
			in = bodies[0]
		}
		again, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("accepted body %q does not re-encode: %v", raw, err)
		}
		got, gotBatch, err := decodeSubmission(again)
		if err != nil || gotBatch != batch || !reflect.DeepEqual(got, specs) {
			t.Fatalf("body %q re-encodes as %s:\n got %+v (batch %v, %v)\nwant %+v (batch %v)",
				raw, again, got, gotBatch, err, specs, batch)
		}
	})
}
