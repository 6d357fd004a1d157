package offchain

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkOffchainPay routes E18's scale-1 payment stream (20000
// payments) over its hub and mesh topologies. Each pass over the stream
// starts from a freshly built network, untimed, so every op does the same
// work and allocs/op is exact; BENCH_baseline.json pins it at 0.
func BenchmarkOffchainPay(b *testing.B) {
	for _, tc := range []struct {
		name string
		hub  bool
	}{{"hub", true}, {"mesh", false}} {
		b.Run(tc.name, func(b *testing.B) {
			pays := e18Payments(sim.NewRNG(2), 20_000)
			var nw *Network
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(pays) == 0 {
					b.StopTimer()
					nw = e18Network(b, sim.NewRNG(1), tc.hub, e18Capital)
					b.StartTimer()
				}
				p := pays[i%len(pays)]
				nw.Pay(p.src, p.dst, p.amt)
			}
		})
	}
}
