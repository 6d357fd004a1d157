package sybil

import (
	"sort"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/overlay/kademlia"
	"repro/internal/sim"
)

func honestNetwork(t *testing.T, n int, seed int64) (*sim.Sim, *kademlia.Network) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	nw := kademlia.NewNetwork(s, nm, kademlia.Config{K: 8, Alpha: 3, UnresponsiveFrac: 0})
	for i := 0; i < n; i++ {
		nw.AddNode(netmodel.Europe)
	}
	if err := nw.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	return s, nw
}

func TestLaunchValidation(t *testing.T) {
	s, nw := honestNetwork(t, 50, 1)
	if _, err := Launch(s, nw, AttackConfig{Identities: 0}); err == nil {
		t.Fatal("zero identities should error")
	}
}

func TestTargetedEclipse(t *testing.T) {
	s, nw := honestNetwork(t, 400, 2)
	target := overlay.KeyID([]byte("victim-key"))
	atk, err := Launch(s, nw, AttackConfig{
		Identities: 16,
		Targeted:   true,
		Target:     target,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run announce: %v", err)
	}
	var stats EclipseStats
	for i := 0; i < 30; i++ {
		origin := nw.Nodes()[s.Stream("o").Intn(400)]
		if origin.Malicious() {
			continue
		}
		nw.Lookup(origin, target, func(r kademlia.Result) { stats.Record(atk, r) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run lookups: %v", err)
	}
	if stats.Lookups == 0 {
		t.Fatal("no lookups measured")
	}
	// With 16 sybils adjacent to the key, eclipse should dominate.
	if stats.ClosestRate() < 0.8 {
		t.Fatalf("ClosestRate = %v, want >= 0.8 (eclipse should own the key)", stats.ClosestRate())
	}
	if stats.MajorityRate() < 0.5 {
		t.Fatalf("MajorityRate = %v, want >= 0.5", stats.MajorityRate())
	}
}

func TestUniformSybilInterceptionGrowsWithIdentities(t *testing.T) {
	measure := func(identities int) float64 {
		s, nw := honestNetwork(t, 300, 3)
		atk, err := Launch(s, nw, AttackConfig{Identities: identities})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run announce: %v", err)
		}
		var stats EclipseStats
		for i := 0; i < 40; i++ {
			origin := nw.Nodes()[s.Stream("o").Intn(300)]
			if origin.Malicious() {
				continue
			}
			target := overlay.RandomID(s.Stream("t"))
			nw.Lookup(origin, target, func(r kademlia.Result) { stats.Record(atk, r) })
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run lookups: %v", err)
		}
		return stats.MeanAttackerFrac()
	}
	small := measure(15)  // 5% of network
	large := measure(300) // 50% of network
	if large <= small {
		t.Fatalf("attacker fraction should grow with identities: 15 ids -> %v, 300 ids -> %v", small, large)
	}
	if large < 0.3 {
		t.Fatalf("50%% sybil population intercepts only %v of result entries", large)
	}
}

func TestCountAttacker(t *testing.T) {
	s, nw := honestNetwork(t, 50, 4)
	atk, err := Launch(s, nw, AttackConfig{Identities: 5})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	contacts := []kademlia.Contact{
		{ID: atk.Nodes()[0].ID},
		{ID: nw.Nodes()[0].ID},
	}
	if got := atk.CountAttacker(contacts); got != 1 {
		t.Fatalf("CountAttacker = %d, want 1", got)
	}
	if !atk.IsAttacker(atk.Nodes()[2].ID) {
		t.Fatal("IsAttacker false for attacker id")
	}
	_ = s
}

func TestEclipseStatsEmpty(t *testing.T) {
	var st EclipseStats
	if st.MajorityRate() != 0 || st.ClosestRate() != 0 || st.MeanAttackerFrac() != 0 {
		t.Fatal("empty stats must report zeros")
	}
}

// TestPoisonMatchesFullSort checks the fabricated replies against a full
// XOR sort of the identity cloud, for clouds smaller and larger than the
// reply width and for targeted (near-target) and uniform identities.
func TestPoisonMatchesFullSort(t *testing.T) {
	for _, cfg := range []AttackConfig{
		{Identities: 5},
		{Identities: 16},
		{Identities: 300},
		{Identities: 300, Targeted: true, Target: overlay.KeyID([]byte("victim"))},
	} {
		s, nw := honestNetwork(t, 40, 6)
		atk, err := Launch(s, nw, cfg)
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		g := s.Stream("poison-test")
		for trial := 0; trial < 20; trial++ {
			target := overlay.RandomID(g)
			switch trial {
			case 0:
				target = atk.contacts[0].ID
			case 1:
				target = cfg.Target
			}
			want := append([]kademlia.Contact(nil), atk.contacts...)
			sort.Slice(want, func(i, j int) bool { return overlay.CloserXOR(target, want[i].ID, want[j].ID) })
			want = want[:min(len(want), 16)]
			got := atk.poison(target)
			if len(got) != len(want) || cap(got) > 16 {
				t.Fatalf("%d identities: poison gave %d contacts (cap %d), want %d", cfg.Identities, len(got), cap(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d identities: reply %d is %v, full sort has %v", cfg.Identities, i, got[i], want[i])
				}
			}
		}
	}
}
