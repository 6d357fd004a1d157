package kademlia

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/sim"
)

func newDeployment(t *testing.T, n int, cfg Config, seed int64) (*sim.Sim, *Network) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	nw := NewNetwork(s, nm, cfg)
	for i := 0; i < n; i++ {
		nw.AddNode(netmodel.Europe)
	}
	if err := nw.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	return s, nw
}

func TestTableAddAndEvict(t *testing.T) {
	g := sim.NewRNG(1)
	self := overlay.RandomID(g)
	tab := NewTable(self, 4)
	if tab.Add(Contact{ID: self}) {
		t.Fatal("table must not store its owner")
	}
	// Fill one specific bucket with ids sharing CPL 0 with self.
	mk := func(i byte) Contact {
		var id overlay.ID
		id[0] = ^self[0] // guarantees CPL 0
		id[19] = i
		return Contact{ID: id, Addr: netmodel.NodeID(i)}
	}
	for i := byte(0); i < 4; i++ {
		if !tab.Add(mk(i)) {
			t.Fatalf("Add #%d failed with room available", i)
		}
	}
	if tab.Add(mk(9)) {
		t.Fatal("full bucket must drop newcomers")
	}
	if !tab.Add(mk(2)) {
		t.Fatal("refreshing an existing contact must succeed")
	}
	if tab.Size() != 4 {
		t.Fatalf("Size = %d, want 4", tab.Size())
	}
}

func TestTableRemove(t *testing.T) {
	g := sim.NewRNG(2)
	self := overlay.RandomID(g)
	tab := NewTable(self, 8)
	c := Contact{ID: overlay.RandomID(g)}
	tab.Add(c)
	if !tab.Contains(c.ID) {
		t.Fatal("contact missing after Add")
	}
	tab.Remove(c.ID)
	if tab.Contains(c.ID) {
		t.Fatal("contact present after Remove")
	}
	tab.Remove(c.ID) // removing absent contact is a no-op
}

// TestTableClosestOrdering checks Closest against a full sort of the table
// by XOR distance, across table sizes, widths and targets that start the
// bucket walk at every kind of class.
func TestTableClosestOrdering(t *testing.T) {
	g := sim.NewRNG(31)
	for _, size := range []int{0, 1, 7, 50, 400} {
		self := overlay.RandomID(g)
		tab := NewTable(self, 20)
		for i := 0; i < size; i++ {
			tab.Add(Contact{ID: overlay.RandomID(g), Addr: netmodel.NodeID(i)})
		}
		all := tab.Contacts()
		for _, n := range []int{1, 2, tab.K(), tab.Size(), tab.Size() + 5} {
			if n <= 0 {
				continue
			}
			for trial := 0; trial < 10; trial++ {
				target := overlay.RandomID(g)
				switch {
				case trial == 0 && len(all) > 0:
					target = all[0].ID // a stored contact is its own closest
				case trial == 1:
					target = self // every bucket is a shallower class
				case trial == 2:
					target = self
					target[2] ^= 0x10 // bucket 19's class first, then deeper, then shallower
				}
				got := tab.Closest(target, n)
				want := sortedContacts(target, all, n)
				if !equalContacts(got, want) {
					t.Fatalf("size %d n %d: Closest = %v, full sort = %v", size, n, got, want)
				}
				if cap(got) > n {
					t.Fatalf("size %d n %d: result capacity %d exceeds n", size, n, cap(got))
				}
			}
		}
		for _, n := range []int{0, -1} {
			if got := tab.Closest(overlay.RandomID(g), n); got != nil {
				t.Fatalf("size %d: Closest(n=%d) = %v, want nil", size, n, got)
			}
		}
	}
}

// Property: a bucket never exceeds k and never stores the owner.
func TestPropertyTableInvariants(t *testing.T) {
	g := sim.NewRNG(4)
	self := overlay.RandomID(g)
	f := func(ids [][overlay.IDBytes]byte) bool {
		tab := NewTable(self, 4)
		for _, raw := range ids {
			tab.Add(Contact{ID: overlay.ID(raw)})
		}
		for cpl := 0; cpl <= overlay.IDBits; cpl++ {
			if tab.BucketLen(cpl) > 4 {
				return false
			}
		}
		return !tab.Contains(self)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupFindsGlobalClosest(t *testing.T) {
	s, nw := newDeployment(t, 300, Config{K: 8, Alpha: 3, UnresponsiveFrac: 0}, 42)
	misses := 0
	const lookups = 30
	for i := 0; i < lookups; i++ {
		target := overlay.RandomID(s.Stream("targets"))
		origin := nw.Nodes()[s.Stream("origins").Intn(300)]
		nw.Lookup(origin, target, func(r Result) {
			if !r.Converged {
				misses++
				return
			}
			truth := nw.ClosestOnline(target, 1)[0]
			found := false
			for _, c := range r.Closest {
				if c.ID == truth.ID {
					found = true
					break
				}
			}
			if !found {
				misses++
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if misses > 1 {
		t.Fatalf("%d/%d lookups missed the globally closest node", misses, lookups)
	}
}

func TestLookupLatencyReasonable(t *testing.T) {
	s, nw := newDeployment(t, 500, Config{K: 8, Alpha: 3, RPCTimeout: 2 * time.Second, UnresponsiveFrac: 0}, 7)
	var lat []time.Duration
	for i := 0; i < 20; i++ {
		origin := nw.Nodes()[i]
		nw.Lookup(origin, overlay.RandomID(s.Stream("t")), func(r Result) {
			lat = append(lat, r.Latency)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(lat) != 20 {
		t.Fatalf("only %d lookups completed", len(lat))
	}
	for _, d := range lat {
		// All-responsive EU-only network: a few round trips, never minutes.
		if d > 3*time.Second {
			t.Fatalf("lookup latency %v unreasonably high without timeouts", d)
		}
	}
}

func TestUnresponsiveNodesCauseTimeouts(t *testing.T) {
	sResp, nwResp := newDeployment(t, 300, Config{K: 8, Alpha: 3, RPCTimeout: time.Second, UnresponsiveFrac: 0}, 9)
	sDead, nwDead := newDeployment(t, 300, Config{K: 8, Alpha: 3, RPCTimeout: time.Second, UnresponsiveFrac: 0.5}, 9)

	run := func(s *sim.Sim, nw *Network) (totalLatency time.Duration) {
		for i := 0; i < 20; i++ {
			nw.Lookup(nw.Nodes()[i], overlay.RandomID(s.Stream("t")), func(r Result) {
				totalLatency += r.Latency
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return totalLatency
	}
	respLat := run(sResp, nwResp)
	deadLat := run(sDead, nwDead)
	if deadLat < 2*respLat {
		t.Fatalf("unresponsive population should slow lookups: responsive=%v dead=%v", respLat, deadLat)
	}
	if nwDead.Timeouts() == 0 {
		t.Fatal("expected timeouts with 50% unresponsive nodes")
	}
}

func TestLookupFromOfflineOrigin(t *testing.T) {
	s, nw := newDeployment(t, 50, Config{UnresponsiveFrac: 0}, 3)
	n := nw.Nodes()[0]
	nw.SetOnline(n, false)
	var got *Result
	nw.Lookup(n, overlay.RandomID(s.Stream("t")), func(r Result) { got = &r })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == nil {
		t.Fatal("done callback never fired")
	}
	if got.Converged || len(got.Closest) != 0 {
		t.Fatal("offline origin should yield empty non-converged result")
	}
}

func TestRejoinRepopulatesTable(t *testing.T) {
	s, nw := newDeployment(t, 200, Config{K: 8, UnresponsiveFrac: 0}, 5)
	n := nw.Nodes()[0]
	nw.SetOnline(n, false)
	rejoined := false
	s.After(time.Minute, func() {
		nw.Rejoin(n, func() { rejoined = true })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rejoined {
		t.Fatal("Rejoin callback never fired")
	}
	if !n.Online() {
		t.Fatal("node offline after Rejoin")
	}
	if n.Table().Size() < 5 {
		t.Fatalf("rejoined table has only %d contacts", n.Table().Size())
	}
}

func TestSenderLearning(t *testing.T) {
	s, nw := newDeployment(t, 100, Config{K: 8, UnresponsiveFrac: 0}, 12)
	origin := nw.Nodes()[0]
	// After a lookup, some queried nodes should have learned the origin.
	nw.Lookup(origin, overlay.RandomID(s.Stream("t")), nil)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	learned := 0
	for _, n := range nw.Nodes()[1:] {
		if n.Table().Contains(origin.ID) {
			learned++
		}
	}
	if learned == 0 {
		t.Fatal("no node learned the requester — sybil poisoning vector missing")
	}
}

func TestMaliciousPoisonedResponses(t *testing.T) {
	s, nw := newDeployment(t, 100, Config{K: 8, Alpha: 3, UnresponsiveFrac: 0}, 21)
	target := overlay.RandomID(s.Stream("atk"))
	// Attacker mints ids adjacent to the target and cross-references them.
	var atkContacts []Contact
	for i := 0; i < 8; i++ {
		id := target
		id[19] ^= byte(i + 1)
		mal := nw.AddMaliciousNode(netmodel.Europe, id, func(overlay.ID) []Contact { return atkContacts })
		atkContacts = append(atkContacts, Contact{ID: mal.ID, Addr: mal.Addr})
	}
	// Announcement phase: each attacker looks up the target, so honest
	// nodes near the target learn the attacker via sender learning (their
	// high-CPL buckets are sparse and accept the entries).
	for _, a := range atkContacts {
		mal := nw.byAddr[a.Addr]
		honest := nw.Nodes()[s.Stream("seed").Intn(100)]
		mal.Table().Add(Contact{ID: honest.ID, Addr: honest.Addr})
		nw.Lookup(mal, target, nil)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run (announce): %v", err)
	}
	origin := nw.Nodes()[0]
	var res Result
	nw.Lookup(origin, target, func(r Result) { res = r })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Closest) == 0 {
		t.Fatal("lookup returned nothing")
	}
	malicious := 0
	for _, c := range res.Closest {
		for _, a := range atkContacts {
			if c.ID == a.ID {
				malicious++
				break
			}
		}
	}
	if malicious < len(res.Closest)/2 {
		t.Fatalf("eclipse failed: %d/%d result entries malicious", malicious, len(res.Closest))
	}
}

func TestPresetConfigs(t *testing.T) {
	kad := KADConfig().withDefaults()
	mdht := MDHTConfig().withDefaults()
	if kad.RPCTimeout >= mdht.RPCTimeout {
		t.Fatal("KAD must have tighter timeouts than MDHT")
	}
	if kad.UnresponsiveFrac >= mdht.UnresponsiveFrac {
		t.Fatal("MDHT must have more unresponsive nodes")
	}
}

func TestBootstrapNeedsTwoNodes(t *testing.T) {
	s := sim.New()
	nm := netmodel.New(s)
	nw := NewNetwork(s, nm, Config{})
	nw.AddNode(netmodel.Europe)
	if err := nw.Bootstrap(); err == nil {
		t.Fatal("Bootstrap with one node should error")
	}
}
