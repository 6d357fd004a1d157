package netmodel

// Sharded execution binding. A Net built with NewSharded partitions its
// nodes across the logical shards of a sim.ShardedSim (round-robin by
// attach order, so shard load balances for any topology) and routes every
// scheduled delivery to the kernel owning the receiver: an intra-shard
// delivery is a plain pooled AtFunc on the owner, a cross-shard one rides
// the driver's mailbox and is merged deterministically at the next window
// barrier. Randomness splits into per-shard "netmodel" streams — a send
// draws loss and jitter from its *sender's* stream — so draw sequences
// depend only on per-shard event order.
//
// The sharded transport is deliberately narrower than the sequential one:
// condition windows (partition/loss/outage) and the shared delay histogram
// and trace instruments mutate or append to state no single shard owns, so
// they are rejected or left unregistered. Topology mutations (SetUp,
// Partition, SetLoss) are setup-time only in sharded mode; during a run
// that shared state is read-only on the hot path.

import (
	"time"

	"repro/internal/sim"
)

// sharding is the per-Net sharded binding; nil on sequential nets.
type sharding struct {
	ss    *sim.ShardedSim
	kerns []*sim.Sim // cached shard kernels, indexed by shard
	rngs  []*sim.RNG // per-shard "netmodel" streams
	owner []int32    // node -> owning shard, assigned round-robin at attach
}

// NewSharded creates an empty network whose event scheduling is partitioned
// across the shards of ss. The caller must size the driver's window with
// DelayFloor over the regions (and jitter) the topology will use; the
// driver verifies the resulting schedule at run time. Transport telemetry
// instruments are not registered in sharded mode (kernel statistics still
// reach a collector attached to the driver); condition windows are
// rejected at scheduling time.
func NewSharded(ss *sim.ShardedSim, opts ...Option) *Net {
	n := &Net{
		sim:    ss.Shard(0),
		jitter: 0.1,
		sh:     &sharding{ss: ss},
	}
	for i := 0; i < ss.ShardCount(); i++ {
		k := ss.Shard(i)
		n.sh.kerns = append(n.sh.kerns, k)
		n.sh.rngs = append(n.sh.rngs, k.Stream("netmodel"))
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// Sharded reports whether the net routes scheduling across shards.
func (n *Net) Sharded() bool { return n.sh != nil }

// ShardOf returns the shard owning a node; 0 for sequential nets and
// invalid ids.
func (n *Net) ShardOf(id NodeID) int {
	if n.sh == nil || !n.valid(id) {
		return 0
	}
	return int(n.sh.owner[id])
}

// Kernel returns the sim kernel a node's events execute on: the owning
// shard's kernel in sharded mode, the single kernel otherwise. Substrates
// riding the sharded transport schedule their per-node control events
// (timeouts, retries) on it so those events run on the node's shard.
func (n *Net) Kernel(id NodeID) *sim.Sim {
	if n.sh == nil {
		return n.sim
	}
	return n.sh.kerns[n.ShardOf(id)]
}

// rngFor returns the stream a node's sends draw loss and jitter from: the
// owning shard's stream in sharded mode, the net-wide stream otherwise.
//
//decentlint:hotpath
func (n *Net) rngFor(id NodeID) *sim.RNG {
	if n.sh == nil {
		return n.rng
	}
	return n.sh.rngs[n.sh.owner[id]]
}

// shSchedule schedules a delivery in sharded mode: directly on the sender's
// kernel when it also owns the receiver, through the cross-shard mailbox
// otherwise. The fire time is anchored at the sender's clock, so the
// driver's window rule applies to the full delay (which DelayFloor bounds
// from below).
//
//decentlint:hotpath
func (n *Net) shSchedule(from, to NodeID, delay time.Duration, h sim.Handler, p sim.Payload) bool {
	sf := int(n.sh.owner[from])
	st := int(n.sh.owner[to])
	at := n.sh.kerns[sf].Now() + delay
	if sf == st {
		return n.sh.kerns[sf].AtFunc(at, h, p)
	}
	return n.sh.ss.Post(sf, st, at, h, p)
}

// DelayFloor returns the conservative window bound for a topology spanning
// the given regions under the given jitter fraction: the minimum one-way
// propagation delay over every ordered region pair (including same-region
// links — shards partition nodes, not regions), scaled by the jitter's
// lower edge. Any Send between nodes in these regions takes at least this
// long (transfer time only adds), so a sharded driver windowed at the
// floor never sees a cross-shard event land inside the window it was
// posted from. The scale arithmetic mirrors RNG.Jitter's minimum exactly.
func DelayFloor(jitter float64, regions ...Region) time.Duration {
	if jitter < 0 {
		jitter = 0
	}
	if jitter > 1 {
		jitter = 1
	}
	min := time.Duration(0)
	for _, a := range regions {
		for _, b := range regions {
			if a < NorthAmerica || a > Region(NumRegions) || b < NorthAmerica || b > Region(NumRegions) {
				continue
			}
			base := time.Duration(baseOneWay[a-1][b-1]) * time.Millisecond
			if min == 0 || base < min {
				min = base
			}
		}
	}
	if min == 0 {
		return 0
	}
	// RNG.Jitter's lowest draw scales by 1 + f*(2*0-1), which is exactly
	// 1-f in float arithmetic, so this floor is attained, never crossed.
	return time.Duration(float64(min) * (1 - jitter))
}
