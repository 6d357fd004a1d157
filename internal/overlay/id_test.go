package overlay

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestKeyIDDeterministic(t *testing.T) {
	a := KeyID([]byte("hello"))
	b := KeyID([]byte("hello"))
	c := KeyID([]byte("world"))
	if a != b {
		t.Fatal("KeyID not deterministic")
	}
	if a == c {
		t.Fatal("distinct keys collided (astronomically unlikely)")
	}
}

func TestRandomIDUniqueness(t *testing.T) {
	g := sim.NewRNG(1)
	seen := make(map[ID]bool)
	for i := 0; i < 1000; i++ {
		id := RandomID(g)
		if seen[id] {
			t.Fatal("duplicate random 160-bit id within 1000 draws")
		}
		seen[id] = true
	}
}

func TestBit(t *testing.T) {
	var id ID
	id[0] = 0x80 // bit 0 set
	id[1] = 0x01 // bit 15 set
	if id.Bit(0) != 1 || id.Bit(1) != 0 || id.Bit(15) != 1 {
		t.Fatalf("Bit extraction wrong: %d %d %d", id.Bit(0), id.Bit(1), id.Bit(15))
	}
	if id.Bit(-1) != 0 || id.Bit(IDBits) != 0 {
		t.Fatal("out-of-range Bit should be 0")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	var a, b ID
	if got := CommonPrefixLen(a, b); got != IDBits {
		t.Fatalf("equal ids CPL = %d, want %d", got, IDBits)
	}
	b[0] = 0x80
	if got := CommonPrefixLen(a, b); got != 0 {
		t.Fatalf("CPL = %d, want 0", got)
	}
	b[0] = 0x01
	if got := CommonPrefixLen(a, b); got != 7 {
		t.Fatalf("CPL = %d, want 7", got)
	}
	b[0] = 0
	b[5] = 0x10
	if got := CommonPrefixLen(a, b); got != 43 {
		t.Fatalf("CPL = %d, want 43", got)
	}
}

func TestCmp(t *testing.T) {
	var a, b ID
	if a.Cmp(b) != 0 {
		t.Fatal("equal ids must compare 0")
	}
	b[19] = 1
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 {
		t.Fatal("Cmp ordering wrong")
	}
}

func TestCloserXOR(t *testing.T) {
	target := KeyID([]byte("t"))
	a := target
	a[19] ^= 0x01 // distance 1
	b := target
	b[0] ^= 0x80 // enormous distance
	if !CloserXOR(target, a, b) {
		t.Fatal("a (distance 1) should be closer than b")
	}
	if CloserXOR(target, b, a) {
		t.Fatal("b should not be closer than a")
	}
	if CloserXOR(target, a, a) {
		t.Fatal("CloserXOR must be strict")
	}
}

func TestRingBetween(t *testing.T) {
	tests := []struct {
		a, x, b uint64
		want    bool
	}{
		{10, 15, 20, true},
		{10, 10, 20, false}, // interval is open at a
		{10, 20, 20, true},  // closed at b
		{10, 25, 20, false},
		{20, 5, 10, true},   // wrap-around
		{20, 15, 10, false}, // wrap-around, x before a
		{7, 7, 7, false},    // degenerate single node: a itself excluded
		{7, 8, 7, true},     // degenerate: everything else included
	}
	for _, tt := range tests {
		if got := RingBetween(tt.a, tt.x, tt.b); got != tt.want {
			t.Errorf("RingBetween(%d,%d,%d) = %v, want %v", tt.a, tt.x, tt.b, got, tt.want)
		}
	}
}

// Property: XOR metric axioms — identity, symmetry, and the triangle
// equality d(a,c) <= d(a,b) XOR d(b,c) doesn't hold in general for XOR, but
// d(a,b)=0 iff a==b and d is symmetric.
func TestPropertyXORMetric(t *testing.T) {
	f := func(ab, bb [IDBytes]byte) bool {
		a, b := ID(ab), ID(bb)
		dAB, dBA := a.XOR(b), b.XOR(a)
		if dAB != dBA {
			return false
		}
		zero := dAB.Cmp(ID{}) == 0
		return zero == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: unidirectionality of XOR — for a fixed target and distinct a, b,
// exactly one of the two is strictly closer.
func TestPropertyXORTotalOrder(t *testing.T) {
	f := func(tb, ab, bb [IDBytes]byte) bool {
		target, a, b := ID(tb), ID(ab), ID(bb)
		if a == b {
			return !CloserXOR(target, a, b) && !CloserXOR(target, b, a)
		}
		return CloserXOR(target, a, b) != CloserXOR(target, b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: CPL(a,b) >= k implies the top k bits agree.
func TestPropertyCPL(t *testing.T) {
	f := func(ab, bb [IDBytes]byte) bool {
		a, b := ID(ab), ID(bb)
		cpl := CommonPrefixLen(a, b)
		for i := 0; i < cpl; i++ {
			if a.Bit(i) != b.Bit(i) {
				return false
			}
		}
		if cpl < IDBits && a.Bit(cpl) == b.Bit(cpl) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRing64(t *testing.T) {
	var id ID
	id[0] = 0x01
	if got := id.Ring64(); got != 1<<56 {
		t.Fatalf("Ring64 = %d, want %d", got, uint64(1)<<56)
	}
}

func TestStringForms(t *testing.T) {
	id := KeyID([]byte("x"))
	if len(id.String()) != 8 {
		t.Fatalf("short form length = %d, want 8 hex chars", len(id.String()))
	}
	if len(id.Hex()) != 40 {
		t.Fatalf("hex form length = %d, want 40", len(id.Hex()))
	}
}

// Property: CloserXOR agrees with comparing the materialized distances.
func TestPropertyCloserXORMatchesDistance(t *testing.T) {
	f := func(tb, ab, bb [IDBytes]byte, shared uint8) bool {
		target, a, b := ID(tb), ID(ab), ID(bb)
		// Share a prefix so later bytes decide, not only the first.
		copy(b[:int(shared)%(IDBytes+1)], a[:])
		return CloserXOR(target, a, b) == (a.XOR(target).Cmp(b.XOR(target)) < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: walking distinct ids through InsertClosest yields exactly the n
// closest of them in XOR order, in a buffer that never outgrows n.
func TestPropertyInsertClosestSelects(t *testing.T) {
	self := func(id ID) ID { return id }
	f := func(tb [IDBytes]byte, raw [][IDBytes]byte, n8 uint8) bool {
		target, n := ID(tb), int(n8%24)+1
		seen := make(map[ID]bool)
		var all []ID
		buf := make([]ID, 0, n)
		for _, r := range raw {
			id := ID(r)
			if seen[id] {
				continue
			}
			seen[id] = true
			all = append(all, id)
			buf = InsertClosest(buf, id, self, target, n)
			if len(buf) > n || cap(buf) != n {
				return false
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].XOR(target).Cmp(all[j].XOR(target)) < 0 })
		all = all[:min(n, len(all))]
		if len(buf) != len(all) {
			return false
		}
		for i := range all {
			if buf[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
