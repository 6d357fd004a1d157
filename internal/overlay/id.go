// Package overlay provides the identifier space shared by all structured
// overlays in this repository: 160-bit node/key identifiers, the XOR metric
// used by Kademlia, the clockwise ring metric used by Chord-style overlays,
// and helpers for generating and comparing identifiers.
package overlay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"sort"

	"repro/internal/sim"
)

// IDBytes is the identifier width in bytes (160 bits, as in Chord, Pastry,
// Kademlia and their deployed descendants).
const IDBytes = 20

// IDBits is the identifier width in bits.
const IDBits = IDBytes * 8

// ID is a 160-bit overlay identifier. The zero value is the all-zeros
// identifier.
type ID [IDBytes]byte

// RandomID returns an identifier drawn uniformly from the id space. Open
// overlays let nodes self-assign exactly these — the root cause of the sybil
// vulnerability the paper discusses.
func RandomID(g *sim.RNG) ID {
	var buf [24]byte
	for i := 0; i < len(buf); i += 8 {
		binary.BigEndian.PutUint64(buf[i:], g.Uint64())
	}
	var id ID
	copy(id[:], buf[:IDBytes])
	return id
}

// KeyID hashes arbitrary bytes into the identifier space (SHA-256 truncated
// to 160 bits).
func KeyID(data []byte) ID {
	sum := sha256.Sum256(data)
	var id ID
	copy(id[:], sum[:IDBytes])
	return id
}

// String returns a short hex prefix for logs and tables.
func (id ID) String() string { return hex.EncodeToString(id[:4]) }

// Hex returns the full hexadecimal form.
func (id ID) Hex() string { return hex.EncodeToString(id[:]) }

// Bit returns bit i (0 = most significant) of the identifier.
func (id ID) Bit(i int) int {
	if i < 0 || i >= IDBits {
		return 0
	}
	return int(id[i/8]>>(7-uint(i%8))) & 1
}

// XOR returns the bitwise XOR of two identifiers (the Kademlia distance).
func (a ID) XOR(b ID) ID {
	var out ID
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// Cmp compares identifiers as unsigned big-endian integers: -1 if a < b, 0
// if equal, +1 if a > b.
func (a ID) Cmp(b ID) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// CommonPrefixLen returns the number of leading bits shared by a and b
// (IDBits when equal). It indexes Kademlia's k-buckets.
func CommonPrefixLen(a, b ID) int {
	for i := range a {
		if x := a[i] ^ b[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	return IDBits
}

// CloserXOR reports whether a is strictly closer to target than b under the
// XOR metric. It is a.XOR(target).Cmp(b.XOR(target)) < 0 without building
// either distance: the first byte where a and b differ decides.
func CloserXOR(target, a, b ID) bool {
	for i := range a {
		if da, db := a[i]^target[i], b[i]^target[i]; da != db {
			return da < db
		}
	}
	return false
}

// InsertClosest inserts x into buf, which holds at most n entries sorted by
// the XOR distance of their id to target, and returns the updated buffer:
// x goes to its binary-search position, the farthest entry drops out when
// buf was full, and x is discarded if it would land past position n. The id
// of x must differ from every id in buf. Distinct ids have distinct
// distances, so passing an input through InsertClosest one entry at a time
// selects exactly the n entries a full sort would keep, in O(S log n)
// comparisons, and a buffer made with capacity n is never reallocated.
// Hot loops first test x against the farthest entry of a full buffer with
// CloserXOR, which inlines and rejects most inputs in one comparison.
func InsertClosest[T any](buf []T, x T, id func(T) ID, target ID, n int) []T {
	xid := id(x)
	i := sort.Search(len(buf), func(j int) bool { return CloserXOR(target, xid, id(buf[j])) })
	if i >= n {
		return buf
	}
	if len(buf) < n {
		buf = append(buf, x)
	}
	copy(buf[i+1:], buf[i:])
	buf[i] = x
	return buf
}

// Ring64 maps the identifier onto a 64-bit ring position (used by the Chord
// and one-hop overlays, which operate on a compact ring).
func (id ID) Ring64() uint64 { return binary.BigEndian.Uint64(id[:8]) }

// RingDistance returns the clockwise distance from a to b on the 64-bit
// ring; wrap-around is handled by unsigned arithmetic.
func RingDistance(a, b uint64) uint64 { return b - a }

// RingBetween reports whether x lies in the clockwise-open interval (a, b]
// on the 64-bit ring. It is the successor test used by Chord routing.
func RingBetween(a, x, b uint64) bool {
	if a == b {
		// Full circle: everything except a itself is "between"; by Chord
		// convention a single node owns the whole ring.
		return x != a
	}
	return RingDistance(a, x) != 0 && RingDistance(a, x) <= RingDistance(a, b)
}
