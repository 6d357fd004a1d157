package kademlia

import (
	"errors"
	"sort"
	"time"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/sim"
)

// Config parameterizes a simulated Kademlia deployment. Two presets capture
// the deployments compared by Jiménez et al.: KADConfig (eMule KAD: adaptive
// short timeouts, mostly reachable peers) and MDHTConfig (BitTorrent
// Mainline: long conservative timeouts, a large unresponsive population
// behind NATs).
type Config struct {
	// K is the bucket size and result-set width (default 16).
	K int
	// Alpha is the lookup parallelism (default 3).
	Alpha int
	// RPCTimeout is how long a node waits before declaring a query dead.
	RPCTimeout time.Duration
	// ReqSize and RespSize are message sizes in bytes.
	ReqSize, RespSize int
	// UnresponsiveFrac is the fraction of nodes that receive but never
	// answer RPCs (NATed/firewalled peers).
	UnresponsiveFrac float64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 16
	}
	if c.Alpha <= 0 {
		c.Alpha = 3
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.ReqSize <= 0 {
		c.ReqSize = 60
	}
	if c.RespSize <= 0 {
		c.RespSize = 60 + 26*c.K
	}
	if c.UnresponsiveFrac < 0 {
		c.UnresponsiveFrac = 0
	}
	if c.UnresponsiveFrac > 1 {
		c.UnresponsiveFrac = 1
	}
	return c
}

// KADConfig models eMule KAD as measured by Jiménez et al.: small
// unresponsive population and tight timeouts, yielding lookups within
// seconds.
func KADConfig() Config {
	return Config{
		K:                10,
		Alpha:            3,
		RPCTimeout:       2 * time.Second,
		UnresponsiveFrac: 0.15,
	}
}

// MDHTConfig models the BitTorrent Mainline DHT: a large share of
// routing-table entries point at unreachable (NATed) peers, lookups proceed
// serially, and clients wait long, conservative timeouts — yielding median
// lookups around a minute (Jiménez et al. measured ~60 s medians).
func MDHTConfig() Config {
	return Config{
		K:                8,
		Alpha:            1,
		RPCTimeout:       8 * time.Second,
		UnresponsiveFrac: 0.45,
	}
}

// Node is one Kademlia participant.
type Node struct {
	ID   overlay.ID
	Addr netmodel.NodeID

	table      *Table
	responsive bool
	malicious  bool
	// poison, when set on a malicious node, fabricates FIND_NODE replies.
	poison func(target overlay.ID) []Contact
	online bool
}

// Online reports whether the node is currently attached to the network.
func (n *Node) Online() bool { return n.online }

// Responsive reports whether the node answers RPCs.
func (n *Node) Responsive() bool { return n.responsive }

// Malicious reports whether the node is attacker-controlled.
func (n *Node) Malicious() bool { return n.malicious }

// Table exposes the node's routing table (primarily for tests and attack
// measurements).
func (n *Node) Table() *Table { return n.table }

// Network is a simulated Kademlia deployment over a netmodel.Net.
type Network struct {
	sim *sim.Sim
	ss  *sim.ShardedSim // nil when the deployment runs on one kernel
	net *netmodel.Net
	cfg Config
	rng *sim.RNG

	nodes  []*Node
	byAddr map[netmodel.NodeID]*Node

	// Sequential-mode RPC accounting.
	rpcs     int64
	timeouts int64
	// Sharded-mode accounting: one slot per shard, each written only by
	// its owning worker, padded apart so the counters never share a cache
	// line. Summed by RPCs/Timeouts after the run.
	shRPCs     []paddedCount
	shTimeouts []paddedCount
}

// paddedCount keeps per-shard counters on distinct cache lines.
type paddedCount struct {
	n int64
	_ [56]byte
}

// NewNetwork creates an empty deployment.
func NewNetwork(s *sim.Sim, nm *netmodel.Net, cfg Config) *Network {
	return &Network{
		sim:    s,
		net:    nm,
		cfg:    cfg.withDefaults(),
		rng:    s.Stream("kademlia"),
		byAddr: make(map[netmodel.NodeID]*Node),
	}
}

// NewShardedNetwork creates an empty deployment driven by a sharded kernel
// over a sharded net (netmodel.NewSharded on the same driver). A node's
// RPC timeouts and lookup state live on the shard owning it, request
// deliveries execute on the receiver's shard, and replies ride back to the
// origin's — so lookups from origins on different shards proceed
// concurrently inside conservative windows with no shared mutable state.
// Setup (AddNode, Bootstrap, issuing Lookups) stays sequential; identity
// and bootstrap randomness draw from shard 0's "kademlia" stream. Churn
// helpers that mutate shared topology (SetOnline, Rejoin) are setup-time
// only on sharded deployments.
func NewShardedNetwork(ss *sim.ShardedSim, nm *netmodel.Net, cfg Config) *Network {
	return &Network{
		sim:        ss.Shard(0),
		ss:         ss,
		net:        nm,
		cfg:        cfg.withDefaults(),
		rng:        ss.Shard(0).Stream("kademlia"),
		byAddr:     make(map[netmodel.NodeID]*Node),
		shRPCs:     make([]paddedCount, ss.ShardCount()),
		shTimeouts: make([]paddedCount, ss.ShardCount()),
	}
}

// kern returns the kernel a node's control events (timeouts, latency
// stamps) run on.
func (nw *Network) kern(addr netmodel.NodeID) *sim.Sim {
	if nw.ss == nil {
		return nw.sim
	}
	return nw.net.Kernel(addr)
}

// addRPC and addTimeout bump the accounting slot owned by the origin's
// shard; sequential deployments keep the plain counters.
func (nw *Network) addRPC(origin netmodel.NodeID) {
	if nw.ss == nil {
		nw.rpcs++
		return
	}
	nw.shRPCs[nw.net.ShardOf(origin)].n++
}

func (nw *Network) addTimeout(origin netmodel.NodeID) {
	if nw.ss == nil {
		nw.timeouts++
		return
	}
	nw.shTimeouts[nw.net.ShardOf(origin)].n++
}

// Config returns the effective (defaulted) configuration.
func (nw *Network) Config() Config { return nw.cfg }

// Nodes returns the nodes in creation order. The returned slice is shared;
// callers must not modify it.
func (nw *Network) Nodes() []*Node { return nw.nodes }

// RPCs returns the total FIND_NODE queries sent.
func (nw *Network) RPCs() int64 {
	total := nw.rpcs
	for i := range nw.shRPCs {
		total += nw.shRPCs[i].n
	}
	return total
}

// Timeouts returns the total queries that expired without an answer.
func (nw *Network) Timeouts() int64 {
	total := nw.timeouts
	for i := range nw.shTimeouts {
		total += nw.shTimeouts[i].n
	}
	return total
}

// AddNode attaches a new honest node in the given region. Responsiveness is
// drawn from Config.UnresponsiveFrac.
func (nw *Network) AddNode(region netmodel.Region) *Node {
	return nw.addNode(region, overlay.RandomID(nw.rng), !nw.rng.Bool(nw.cfg.UnresponsiveFrac), false)
}

// AddMaliciousNode attaches an attacker-controlled node with a chosen
// identifier. Malicious nodes are always responsive — answering fast is the
// attack. The poison function fabricates its FIND_NODE replies; nil means it
// behaves protocol-correctly (a passive sybil that merely occupies space).
func (nw *Network) AddMaliciousNode(region netmodel.Region, id overlay.ID, poison func(target overlay.ID) []Contact) *Node {
	n := nw.addNode(region, id, true, true)
	n.poison = poison
	return n
}

func (nw *Network) addNode(region netmodel.Region, id overlay.ID, responsive, malicious bool) *Node {
	addr := nw.net.AddNode(region, 0)
	n := &Node{
		ID:         id,
		Addr:       addr,
		table:      NewTable(id, nw.cfg.K),
		responsive: responsive,
		malicious:  malicious,
		online:     true,
	}
	nw.nodes = append(nw.nodes, n)
	nw.byAddr[addr] = n
	return n
}

// SetOnline attaches or detaches a node, mirroring churn transitions.
func (nw *Network) SetOnline(n *Node, online bool) {
	n.online = online
	nw.net.SetUp(n.Addr, online)
}

// Bootstrap populates every online node's routing table as a converged
// network would have it: each node learns its K XOR-closest online
// neighbours plus a sample of distant online contacts. This mirrors the
// steady state reached after every node has performed a self-lookup and
// bucket refreshes, without paying the O(n·lookup) message cost — joins and
// departures after Bootstrap are handled by the normal protocol machinery.
// Offline nodes are excluded (a converged network has evicted them).
func (nw *Network) Bootstrap() error {
	if len(nw.nodes) < 2 {
		return errors.New("kademlia: need at least two nodes to bootstrap")
	}
	order := make([]*Node, 0, len(nw.nodes))
	for _, node := range nw.nodes {
		if node.online {
			order = append(order, node)
		}
	}
	n := len(order)
	if n < 2 {
		return errors.New("kademlia: need at least two online nodes to bootstrap")
	}
	// Sort by identifier; numerically adjacent identifiers share long
	// prefixes, so XOR-closest neighbours are found among the numeric
	// neighbours.
	sort.Slice(order, func(i, j int) bool { return order[i].ID.Cmp(order[j].ID) < 0 })
	window := 4 * nw.cfg.K
	// One buffer, reused for every node, collects the K XOR-closest
	// contacts of the node's window; Table.Add copies what it keeps.
	neigh := make([]Contact, 0, nw.cfg.K)
	for i, node := range order {
		lo := i - window/2
		if lo < 0 {
			lo = 0
		}
		hi := lo + window
		if hi > n {
			hi = n
			lo = hi - window
			if lo < 0 {
				lo = 0
			}
		}
		neigh = neigh[:0]
		for j := lo; j < hi; j++ {
			if j == i {
				continue
			}
			if len(neigh) < nw.cfg.K || overlay.CloserXOR(node.ID, order[j].ID, neigh[nw.cfg.K-1].ID) {
				neigh = overlay.InsertClosest(neigh, Contact{ID: order[j].ID, Addr: order[j].Addr},
					contactID, node.ID, nw.cfg.K)
			}
		}
		for _, c := range neigh {
			node.table.Add(c)
		}
		// Distant contacts: random online nodes fill the short-prefix
		// buckets that carry most routing progress.
		for j := 0; j < 4*nw.cfg.K; j++ {
			other := order[nw.rng.Intn(n)]
			if other != node {
				node.table.Add(Contact{ID: other.ID, Addr: other.Addr})
			}
		}
	}
	return nil
}

// RandomOnlineNode returns a uniformly chosen online node, or nil if none
// exist. It models the centralized bootstrap servers every deployed DHT
// relies on.
func (nw *Network) RandomOnlineNode() *Node {
	if len(nw.nodes) == 0 {
		return nil
	}
	for attempts := 0; attempts < 64; attempts++ {
		n := nw.nodes[nw.rng.Intn(len(nw.nodes))]
		if n.online {
			return n
		}
	}
	for _, n := range nw.nodes {
		if n.online {
			return n
		}
	}
	return nil
}

// Rejoin re-attaches a node after downtime: it wipes the stale routing
// table, seeds it from a bootstrap contact, and performs a self-lookup to
// repopulate its neighbourhood.
func (nw *Network) Rejoin(n *Node, done func()) {
	nw.SetOnline(n, true)
	n.table = NewTable(n.ID, nw.cfg.K)
	boot := nw.RandomOnlineNode()
	if boot == nil || boot == n {
		if done != nil {
			done()
		}
		return
	}
	n.table.Add(Contact{ID: boot.ID, Addr: boot.Addr})
	nw.Lookup(n, n.ID, func(Result) {
		if done != nil {
			done()
		}
	})
}

// ClosestOnline returns the k online, responsive, honest nodes closest to
// target — the ground truth a successful lookup should discover — sorted by
// XOR distance, or nil when k <= 0. It is one pass over the nodes with
// binary insertion into a buffer of at most k (overlay.InsertClosest),
// O(N log k) for N nodes; honest node IDs are distinct, so no two distances
// tie. The result has capacity at most k.
func (nw *Network) ClosestOnline(target overlay.ID, k int) []*Node {
	if k <= 0 {
		return nil
	}
	out := make([]*Node, 0, min(k, len(nw.nodes)))
	for _, n := range nw.nodes {
		if !n.online || !n.responsive || n.malicious {
			continue
		}
		if len(out) < k || overlay.CloserXOR(target, n.ID, out[k-1].ID) {
			out = overlay.InsertClosest(out, n, nodeID, target, k)
		}
	}
	return out
}

func nodeID(n *Node) overlay.ID { return n.ID }

// findNode issues one FIND_NODE RPC and invokes onDone exactly once with
// either the contacts from the reply or ok=false on timeout/drop.
func (nw *Network) findNode(from *Node, to Contact, target overlay.ID, onDone func(contacts []Contact, ok bool)) {
	nw.addRPC(from.Addr)
	answered := false
	var timeout sim.Handle
	// finish runs on the origin's kernel either way: the timeout is
	// scheduled there, and the reply delivery below executes on the
	// origin's shard because the response Send targets from.Addr.
	finish := func(contacts []Contact, ok bool) {
		if answered {
			return
		}
		answered = true
		timeout.Cancel()
		if !ok {
			nw.addTimeout(from.Addr)
		}
		onDone(contacts, ok)
	}
	timeout = nw.kern(from.Addr).After(nw.cfg.RPCTimeout, func() { finish(nil, false) })

	nw.net.Send(from.Addr, to.Addr, nw.cfg.ReqSize, func() {
		recv, ok := nw.byAddr[to.Addr]
		if !ok || !recv.online {
			return
		}
		// Open networks learn the requester — the sybil poisoning vector.
		recv.table.Add(Contact{ID: from.ID, Addr: from.Addr})
		if !recv.responsive {
			return
		}
		var contacts []Contact
		if recv.malicious && recv.poison != nil {
			contacts = recv.poison(target)
		} else {
			contacts = recv.table.Closest(target, nw.cfg.K)
		}
		nw.net.Send(to.Addr, from.Addr, nw.cfg.RespSize, func() {
			finish(contacts, true)
		})
	})
}
