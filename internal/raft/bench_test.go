package raft

import (
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// BenchmarkRaftRunLoad drives E13's Raft row at scale 1: a 5-node cluster
// in one region offered 2000 requests/s for 10 simulated seconds. Building
// the cluster is excluded from the timing; each op is one full RunLoad at
// a fixed seed, so allocs/op is a pure function of the code and
// BENCH_baseline.json pins it.
func BenchmarkRaftRunLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := sim.New(sim.WithSeed(1))
		c, err := NewCluster(s, netmodel.New(s, netmodel.WithJitter(0.1)), 5, netmodel.Europe, Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := c.RunLoad(2000, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if st.Committed == 0 {
			b.Fatal("nothing committed")
		}
	}
}
