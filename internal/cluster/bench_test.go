// bench_test.go prices the cluster transport: one quote-decline cycle
// through the gateway (JSON encode, HTTP round trip over a loopback
// socket, envelope decode, id lift) against the same cycle on an
// in-process engine. The delta is the wire cost a deployment pays for
// horizontal scale-out; the ladder carries the same pair as
// cluster.gateway_submit_us vs multicity.submit_us.
package cluster

import (
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/roadnet"
)

// gatewayBenchProbes are fixed vertex pairs on the 10x10 bench city,
// spread so quotes stay cheap and comparable.
var gatewayBenchProbes = [][2]roadnet.VertexID{
	{3, 40}, {5, 44}, {12, 70}, {21, 88}, {7, 63}, {30, 95},
}

func BenchmarkGatewaySubmit(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		eng := newCityEngine(b, 10, 10, 0, 1, 10)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := gatewayBenchProbes[i%len(gatewayBenchProbes)]
			rec, err := eng.Submit(p[0], p[1], 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Decline(rec.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gateway", func(b *testing.B) {
		eng := newCityEngine(b, 10, 10, 0, 1, 10)
		ts, _ := startShard(b, eng, ShardOptions{})
		gw, err := NewGateway([]string{"solo=" + ts.URL}, GatewayConfig{Client: fastClient()})
		if err != nil {
			b.Fatalf("gateway: %v", err)
		}
		defer gw.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := gatewayBenchProbes[i%len(gatewayBenchProbes)]
			rec, err := gw.SubmitRequest(core.SubmitSpec{City: "solo", S: p[0], D: p[1], Riders: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := gw.Decline(rec.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}
