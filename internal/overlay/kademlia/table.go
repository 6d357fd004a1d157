// Package kademlia implements the Kademlia DHT (Maymounkov & Mazières 2002)
// as deployed in eMule KAD and the BitTorrent Mainline DHT: k-bucket routing
// tables, iterative α-parallel lookups over an unreliable message-level
// network, per-RPC timeouts, and the sender-learning behaviour that makes
// open deployments vulnerable to sybil poisoning.
//
// The package reproduces the mechanisms behind three of the paper's claims:
// lookup latency divergence between KAD-like and MDHT-like deployments
// (Jiménez et al.), degradation under churn, and sybil/eclipse attacks on
// open identifier assignment.
package kademlia

import (
	"repro/internal/netmodel"
	"repro/internal/overlay"
)

// Contact is a routing-table entry: an overlay identifier plus the network
// address it claims to live at.
type Contact struct {
	ID   overlay.ID
	Addr netmodel.NodeID
}

// Table is a Kademlia routing table: up to IDBits k-buckets indexed by the
// common prefix length with the owner's identifier. Buckets keep
// least-recently-seen contacts at the front and, when full, drop newcomers —
// Kademlia's documented bias toward long-lived peers.
type Table struct {
	self    overlay.ID
	k       int
	buckets [][]Contact
}

// NewTable creates a routing table for the given owner with bucket size k.
func NewTable(self overlay.ID, k int) *Table {
	if k <= 0 {
		k = 20
	}
	return &Table{
		self:    self,
		k:       k,
		buckets: make([][]Contact, overlay.IDBits+1),
	}
}

// K returns the bucket capacity.
func (t *Table) K() int { return t.k }

// Add inserts or refreshes a contact. Existing contacts move to the
// most-recently-seen position; new contacts are appended if the bucket has
// room and dropped otherwise. The owner's own id is never stored. It reports
// whether the contact is present after the call.
func (t *Table) Add(c Contact) bool {
	if c.ID == t.self {
		return false
	}
	idx := overlay.CommonPrefixLen(t.self, c.ID)
	b := t.buckets[idx]
	for i := range b {
		if b[i].ID == c.ID {
			// Move to tail (most recently seen).
			copy(b[i:], b[i+1:])
			b[len(b)-1] = c
			return true
		}
	}
	if len(b) < t.k {
		t.buckets[idx] = append(b, c)
		return true
	}
	return false
}

// Remove deletes a contact (e.g. after an RPC timeout).
func (t *Table) Remove(id overlay.ID) {
	idx := overlay.CommonPrefixLen(t.self, id)
	b := t.buckets[idx]
	for i := range b {
		if b[i].ID == id {
			t.buckets[idx] = append(b[:i], b[i+1:]...)
			return
		}
	}
}

// Contains reports whether the table currently stores the contact.
func (t *Table) Contains(id overlay.ID) bool {
	idx := overlay.CommonPrefixLen(t.self, id)
	for _, c := range t.buckets[idx] {
		if c.ID == id {
			return true
		}
	}
	return false
}

// Size returns the total number of stored contacts.
func (t *Table) Size() int {
	n := 0
	for _, b := range t.buckets {
		n += len(b)
	}
	return n
}

// Closest returns up to n contacts sorted by XOR distance to target, or nil
// when n <= 0. It keeps the n closest contacts seen so far by binary
// insertion (overlay.InsertClosest), rejecting most contacts with one
// comparison against the current farthest, and visits buckets in distance
// order so it can stop early: usually it reads one bucket, and at worst the
// table once, O(S log n) for S contacts. Contact IDs are unique within a
// table, so no two distances tie and the order is fully determined. The
// result has capacity at most n.
func (t *Table) Closest(target overlay.ID, n int) []Contact {
	if n <= 0 {
		return nil
	}
	out := make([]Contact, 0, min(n, t.Size()))
	// With j the common prefix length of the owner and target, a contact in
	// bucket j shares more than j leading bits with target, one in any
	// deeper bucket exactly j, and one in a shallower bucket i < j exactly
	// i. Visiting bucket j, then the deeper buckets together, then buckets
	// j-1 down to 0 meets these classes nearest first, so a buffer that is
	// full at a class boundary is final.
	j := overlay.CommonPrefixLen(t.self, target)
	out = t.selectBuckets(out, target, n, j, j+1)
	if len(out) < n {
		out = t.selectBuckets(out, target, n, j+1, len(t.buckets))
	}
	for i := j - 1; i >= 0 && len(out) < n; i-- {
		out = t.selectBuckets(out, target, n, i, i+1)
	}
	return out
}

// selectBuckets walks buckets [lo, hi) into out, the n closest contacts to
// target found so far.
func (t *Table) selectBuckets(out []Contact, target overlay.ID, n, lo, hi int) []Contact {
	for _, b := range t.buckets[lo:hi] {
		for _, c := range b {
			if len(out) < n || overlay.CloserXOR(target, c.ID, out[n-1].ID) {
				out = overlay.InsertClosest(out, c, contactID, target, n)
			}
		}
	}
	return out
}

func contactID(c Contact) overlay.ID { return c.ID }

// Contacts returns a copy of every stored contact (bucket order).
func (t *Table) Contacts() []Contact {
	out := make([]Contact, 0, t.Size())
	for _, b := range t.buckets {
		out = append(out, b...)
	}
	return out
}

// BucketLen returns the number of contacts in the bucket for the given
// common prefix length.
func (t *Table) BucketLen(cpl int) int {
	if cpl < 0 || cpl > overlay.IDBits {
		return 0
	}
	return len(t.buckets[cpl])
}
