package kademlia

import (
	"sort"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/sim"
)

// sortedContacts is the brute-force oracle for every selection in this
// package: a full sort of the input by XOR distance to target, cut to n.
func sortedContacts(target overlay.ID, in []Contact, n int) []Contact {
	all := append([]Contact(nil), in...)
	sort.Slice(all, func(i, j int) bool { return overlay.CloserXOR(target, all[i].ID, all[j].ID) })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

func equalContacts(a, b []Contact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestClosestOnlineMatchesFullSort(t *testing.T) {
	s := sim.New(sim.WithSeed(32))
	nw := NewNetwork(s, netmodel.New(s), Config{K: 8, UnresponsiveFrac: 0.3})
	if got := nw.ClosestOnline(overlay.RandomID(s.Stream("t")), 8); len(got) != 0 {
		t.Fatalf("empty network: ClosestOnline = %v", got)
	}
	for i := 0; i < 300; i++ {
		nw.AddNode(netmodel.Europe)
	}
	g := s.Stream("test")
	for i := 0; i < 10; i++ {
		nw.AddMaliciousNode(netmodel.Europe, overlay.RandomID(g), nil)
	}
	for _, n := range nw.Nodes() {
		if g.Bool(0.2) {
			nw.SetOnline(n, false)
		}
	}
	// The oracle works on contacts; Addr is unique per node, so it maps
	// each selected contact back to its node.
	var eligible []Contact
	for _, n := range nw.Nodes() {
		if n.Online() && n.Responsive() && !n.Malicious() {
			eligible = append(eligible, Contact{ID: n.ID, Addr: n.Addr})
		}
	}
	if len(eligible) < 50 || len(eligible) == len(nw.Nodes()) {
		t.Fatalf("test network has %d of %d eligible nodes; want a filtered subset", len(eligible), len(nw.Nodes()))
	}
	for _, k := range []int{1, nw.Config().K, len(eligible), len(nw.Nodes()) + 1} {
		for trial := 0; trial < 10; trial++ {
			target := overlay.RandomID(g)
			got := nw.ClosestOnline(target, k)
			want := sortedContacts(target, eligible, k)
			if len(got) != len(want) || cap(got) > k {
				t.Fatalf("k %d: got %d nodes (cap %d), want %d", k, len(got), cap(got), len(want))
			}
			for i, n := range got {
				if n.ID != want[i].ID || n.Addr != want[i].Addr {
					t.Fatalf("k %d: position %d is %v, full sort has %v", k, i, n.ID, want[i].ID)
				}
			}
		}
	}
	for _, k := range []int{0, -3} {
		if got := nw.ClosestOnline(overlay.RandomID(g), k); got != nil {
			t.Fatalf("ClosestOnline(k=%d) = %v, want nil", k, got)
		}
	}
}

// TestLookupCandidateOrder feeds a lookup's candidate list contacts in
// random order, with repeats and the origin's own id mixed in, and checks it
// always equals the full sort of the distinct non-origin contacts seen.
func TestLookupCandidateOrder(t *testing.T) {
	g := sim.NewRNG(33)
	origin := &Node{ID: overlay.RandomID(g)}
	target := overlay.RandomID(g)
	l := &lookup{origin: origin, target: target, seen: make(map[overlay.ID]bool)}
	var pool, distinct []Contact
	for i := 0; i < 300; i++ {
		var c Contact
		switch {
		case i%17 == 0:
			c = Contact{ID: origin.ID}
		case len(pool) > 0 && i%5 == 0:
			c = pool[g.Intn(len(pool))]
		default:
			c = Contact{ID: overlay.RandomID(g), Addr: netmodel.NodeID(i)}
			pool = append(pool, c)
			distinct = append(distinct, c)
		}
		l.add(c)
		if len(l.cands) != len(distinct) {
			t.Fatalf("after %d adds: %d candidates, want %d distinct", i+1, len(l.cands), len(distinct))
		}
	}
	want := sortedContacts(target, distinct, len(distinct))
	for i, c := range l.cands {
		if c.contact != want[i] || c.state != statePending {
			t.Fatalf("candidate %d is %v (state %d), full sort has %v", i, c.contact, c.state, want[i])
		}
	}
}

// referenceBootstrap is Bootstrap as it was written before the selection
// rewrite: a full XOR sort of each node's window. It consumes the same RNG
// draws in the same order.
func referenceBootstrap(nw *Network) {
	var order []*Node
	for _, node := range nw.nodes {
		if node.online {
			order = append(order, node)
		}
	}
	n := len(order)
	sort.Slice(order, func(i, j int) bool { return order[i].ID.Cmp(order[j].ID) < 0 })
	window := 4 * nw.cfg.K
	for i, node := range order {
		lo := max(i-window/2, 0)
		hi := lo + window
		if hi > n {
			hi = n
			lo = max(hi-window, 0)
		}
		var neigh []Contact
		for j := lo; j < hi; j++ {
			if j != i {
				neigh = append(neigh, Contact{ID: order[j].ID, Addr: order[j].Addr})
			}
		}
		for _, c := range sortedContacts(node.ID, neigh, nw.cfg.K) {
			node.table.Add(c)
		}
		for j := 0; j < 4*nw.cfg.K; j++ {
			if other := order[nw.rng.Intn(n)]; other != node {
				node.table.Add(Contact{ID: other.ID, Addr: other.Addr})
			}
		}
	}
}

func TestBootstrapMatchesFullSort(t *testing.T) {
	build := func() *Network {
		s := sim.New(sim.WithSeed(34))
		nw := NewNetwork(s, netmodel.New(s), Config{K: 6})
		for i := 0; i < 400; i++ {
			nw.AddNode(netmodel.Europe)
		}
		for i, n := range nw.Nodes() {
			if i%9 == 0 {
				nw.SetOnline(n, false)
			}
		}
		return nw
	}
	got, want := build(), build()
	if err := got.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	referenceBootstrap(want)
	for i := range got.nodes {
		a, b := got.nodes[i].table.Contacts(), want.nodes[i].table.Contacts()
		if !equalContacts(a, b) {
			t.Fatalf("node %d: table %v, full-sort bootstrap gives %v", i, a, b)
		}
	}
}

func TestRandomOnlineNodeEmptyNetwork(t *testing.T) {
	s := sim.New(sim.WithSeed(35))
	nw := NewNetwork(s, netmodel.New(s), Config{})
	if n := nw.RandomOnlineNode(); n != nil {
		t.Fatalf("RandomOnlineNode on an empty network = %v, want nil", n)
	}
	only := nw.AddNode(netmodel.Europe)
	nw.SetOnline(only, false)
	if n := nw.RandomOnlineNode(); n != nil {
		t.Fatalf("RandomOnlineNode with every node offline = %v, want nil", n)
	}
	// Rejoin falls back to an empty table when no bootstrap contact exists.
	done := false
	nw.Rejoin(only, func() { done = true })
	if !done || !only.Online() || only.Table().Size() != 0 {
		t.Fatalf("Rejoin of the only node: done %v online %v size %d", done, only.Online(), only.Table().Size())
	}
}
