package kademlia

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/sim"
)

// Overlay benchmarks. The allocs/op of each is a pure function of the code
// (fixed seeds, fixed work per op), so BENCH_baseline.json pins it and
// benchjson -check-allocs fails any rise.

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkContacts []Contact
	sinkNodes    []*Node
)

// benchNetwork builds an un-bootstrapped KAD deployment of n nodes.
func benchNetwork(n int) (*sim.Sim, *Network) {
	s := sim.New(sim.WithSeed(1))
	nw := NewNetwork(s, netmodel.New(s, netmodel.WithJitter(0.2)), KADConfig())
	for i := 0; i < n; i++ {
		nw.AddNode(netmodel.Europe)
	}
	return s, nw
}

// benchTargets draws a fixed cycle of lookup targets.
func benchTargets(n int) []overlay.ID {
	g := sim.NewRNG(2)
	out := make([]overlay.ID, n)
	for i := range out {
		out[i] = overlay.RandomID(g)
	}
	return out
}

// BenchmarkKademliaClosest selects the K closest of a 5000-contact table.
func BenchmarkKademliaClosest(b *testing.B) {
	g := sim.NewRNG(3)
	tab := NewTable(overlay.RandomID(g), 5000)
	for i := 0; i < 5000; i++ {
		tab.Add(Contact{ID: overlay.RandomID(g), Addr: netmodel.NodeID(i)})
	}
	targets := benchTargets(256)
	k := KADConfig().K
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkContacts = tab.Closest(targets[i%len(targets)], k)
	}
}

// BenchmarkKademliaClosestOnline computes a lookup's ground truth over 10^4
// nodes.
func BenchmarkKademliaClosestOnline(b *testing.B) {
	_, nw := benchNetwork(10000)
	targets := benchTargets(256)
	k := nw.Config().K
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNodes = nw.ClosestOnline(targets[i%len(targets)], k)
	}
}

// BenchmarkKademliaBootstrap converges the routing tables of a fresh
// deployment; building the deployment is excluded from the timing.
func BenchmarkKademliaBootstrap(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"n1k", 1000}, {"n10k", 10000}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, nw := benchNetwork(size.n)
				b.StartTimer()
				if err := nw.Bootstrap(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKademliaLookup runs a batch of lookups to completion on a
// freshly bootstrapped 10^3-node deployment. Lookups mutate routing tables,
// so each op rebuilds the deployment (untimed) to keep the work per op, and
// with it allocs/op, fixed.
func BenchmarkKademliaLookup(b *testing.B) {
	const nodes, lookups = 1000, 32
	targets := benchTargets(lookups)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, nw := benchNetwork(nodes)
		if err := nw.Bootstrap(); err != nil {
			b.Fatal(err)
		}
		all := nw.Nodes()
		b.StartTimer()
		done := 0
		for j, target := range targets {
			nw.Lookup(all[j*nodes/lookups], target, func(Result) { done++ })
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if done != lookups {
			b.Fatalf("%d of %d lookups finished", done, lookups)
		}
	}
}
