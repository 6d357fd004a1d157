package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/netmodel"
	"repro/internal/offchain"
	"repro/internal/overlay"
	"repro/internal/overlay/chord"
	"repro/internal/overlay/kademlia"
	"repro/internal/pbft"
	"repro/internal/raft"
	"repro/internal/sim"
)

// The probes call each layer's public functions directly, at the sizes
// the workloads drive them, and time the calls from outside. Every probe
// repeats probeReps times with fresh state; the metric is the median.
const probeReps = 3

// probe runs fn probeReps times and sets each returned metric to its
// median across the repetitions.
func probe(t *tally, seed int64, fn func(seed int64) (map[string]float64, error)) error {
	runs := make(map[string][]float64)
	for r := 0; r < probeReps; r++ {
		runtime.GC()
		got, err := fn(seed + int64(r))
		if err != nil {
			return err
		}
		for name, v := range got {
			runs[name] = append(runs[name], v)
		}
	}
	for name, vs := range runs {
		t.set(name, median(vs))
	}
	return nil
}

func runProbes(t *tally, seed int64) error {
	for _, fn := range []func(int64) (map[string]float64, error){
		probeKernel, probeTransport, probeKademlia, probeChord, probeRaft, probePBFT, probeOffchain,
	} {
		if err := probe(t, seed, fn); err != nil {
			return err
		}
		t.ok(1)
	}
	return nil
}

func perCall(d time.Duration, calls int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(calls)
}

// probeKernel times AfterFunc scheduling plus firing with a steady queue:
// chains of self-rescheduling handler events, as a transport drives the
// kernel.
func probeKernel(seed int64) (map[string]float64, error) {
	const chains, events = 256, 400_000
	s := sim.New(sim.WithSeed(seed))
	fired := 0
	var h sim.Handler
	h = func(p sim.Payload) {
		fired++
		if fired+chains <= events {
			s.AfterFunc(time.Duration(1+p.A%7)*time.Microsecond, h, sim.Payload{A: p.A + 1})
		}
	}
	start := time.Now()
	for i := 0; i < chains; i++ {
		s.AfterFunc(time.Duration(i)*time.Nanosecond, h, sim.Payload{A: int64(i)})
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	el := time.Since(start)
	if fired != events {
		return nil, fmt.Errorf("kernel probe fired %d of %d events", fired, events)
	}
	return map[string]float64{"kernel.afterfunc_ns": perCall(el, events, time.Nanosecond)}, nil
}

// probeTransport times netmodel Send (with its delivery) across regions and
// Broadcast to a 128-node network.
func probeTransport(seed int64) (map[string]float64, error) {
	const nodes, rounds, perRound = 64, 50, 2000
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	for i := 0; i < nodes; i++ {
		nm.AddNode(netmodel.Region(1+i%netmodel.NumRegions), 0)
	}
	delivered := 0
	deliver := func() { delivered++ }
	sends := 0
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			from, to := i%nodes, (i*7+r+1)%nodes
			if from == to {
				continue
			}
			nm.Send(netmodel.NodeID(from), netmodel.NodeID(to), 512, deliver)
			sends++
		}
		if err := s.Run(); err != nil {
			return nil, err
		}
	}
	sendNs := perCall(time.Since(start), sends, time.Nanosecond)
	if delivered != sends {
		return nil, fmt.Errorf("transport probe delivered %d of %d messages", delivered, sends)
	}

	const bnodes, broadcasts = 128, 400
	s2 := sim.New(sim.WithSeed(seed))
	bm := netmodel.New(s2, netmodel.WithJitter(0.1))
	for i := 0; i < bnodes; i++ {
		bm.AddNode(netmodel.Region(1+i%netmodel.NumRegions), 100e6)
	}
	got := 0
	onDeliver := func(netmodel.NodeID) { got++ }
	start = time.Now()
	for i := 0; i < broadcasts; i++ {
		bm.Broadcast(netmodel.NodeID(i%bnodes), 1000, onDeliver)
		if err := s2.Run(); err != nil {
			return nil, err
		}
	}
	bcastNs := perCall(time.Since(start), broadcasts, time.Nanosecond)
	if got != broadcasts*(bnodes-1) {
		return nil, fmt.Errorf("transport probe broadcast %d of %d copies", got, broadcasts*(bnodes-1))
	}
	return map[string]float64{"transport.send_ns": sendNs, "transport.broadcast_ns": bcastNs}, nil
}

// kadNet builds and bootstraps a KAD-configured network of n nodes,
// returning the kernel, the network and the build time.
func kadNet(seed int64, n int) (*sim.Sim, *kademlia.Network, time.Duration, error) {
	start := time.Now()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.2))
	nw := kademlia.NewNetwork(s, nm, kademlia.KADConfig())
	for i := 0; i < n; i++ {
		nw.AddNode(netmodel.Europe)
	}
	err := nw.Bootstrap()
	return s, nw, time.Since(start), err
}

// kadLookups issues lookups from responsive origins toward random targets
// and drives them to completion through sim.Run.
func kadLookups(s *sim.Sim, nw *kademlia.Network, lookups int) (time.Duration, int, int, error) {
	g := s.Stream("decentbench.lookup")
	nodes := nw.Nodes()
	rpcs, timeouts, done := 0, 0, 0
	start := time.Now()
	for i := 0; i < lookups; i++ {
		origin := nodes[g.Intn(len(nodes))]
		for !origin.Responsive() {
			origin = nodes[g.Intn(len(nodes))]
		}
		nw.Lookup(origin, overlay.RandomID(g), func(r kademlia.Result) {
			rpcs += r.RPCs
			timeouts += r.Timeouts
			done++
		})
	}
	if err := s.Run(); err != nil {
		return 0, 0, 0, err
	}
	el := time.Since(start)
	if done != lookups {
		return 0, 0, 0, fmt.Errorf("kademlia probe finished %d of %d lookups", done, lookups)
	}
	return el, rpcs, timeouts, nil
}

// probeKademlia measures Bootstrap and Lookup at 10^3 and 10^4 nodes (the
// E03 working sets), Table.Closest and Network.ClosestOnline.
func probeKademlia(seed int64) (map[string]float64, error) {
	const lookups, closestCalls, onlineCalls = 200, 5000, 20
	out := make(map[string]float64)
	rpcs, timeouts := 0, 0
	for _, size := range []struct {
		label string
		n     int
	}{{"n1k", 1000}, {"n10k", 10000}} {
		s, nw, build, err := kadNet(seed, size.n)
		if err != nil {
			return nil, err
		}
		out["overlay.kad_bootstrap_ms."+size.label] = float64(build) / float64(time.Millisecond)
		el, r, to, err := kadLookups(s, nw, lookups)
		if err != nil {
			return nil, err
		}
		out["overlay.kad_lookup_us."+size.label] = perCall(el, lookups, time.Microsecond)
		rpcs += r
		timeouts += to
		if size.n != 10000 {
			continue
		}
		g := s.Stream("decentbench.closest")
		nodes := nw.Nodes()
		k := nw.Config().K
		start := time.Now()
		for i := 0; i < closestCalls; i++ {
			nodes[i%len(nodes)].Table().Closest(overlay.RandomID(g), k)
		}
		out["overlay.kad_closest_us"] = perCall(time.Since(start), closestCalls, time.Microsecond)
		start = time.Now()
		for i := 0; i < onlineCalls; i++ {
			if got := nw.ClosestOnline(overlay.RandomID(g), k); len(got) != k {
				return nil, fmt.Errorf("kademlia probe: ClosestOnline returned %d of %d nodes", len(got), k)
			}
		}
		out["overlay.kad_closest_online_us.n10k"] = perCall(time.Since(start), onlineCalls, time.Microsecond)
	}
	out["overlay.kad_rpcs_per_lookup"] = float64(rpcs) / float64(2*lookups)
	out["overlay.kad_timeout_frac"] = frac(timeouts, rpcs)
	return out, nil
}

// probeChord times Chord lookups on E05's 1024-node ring.
func probeChord(seed int64) (map[string]float64, error) {
	const nodes, lookups = 1024, 500
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	nw := chord.NewNetwork(s, nm, chord.Config{})
	for i := 0; i < nodes; i++ {
		nw.AddNode(netmodel.Europe)
	}
	if err := nw.Build(); err != nil {
		return nil, err
	}
	g := s.Stream("decentbench.chord")
	ok := 0
	start := time.Now()
	for i := 0; i < lookups; i++ {
		nw.Lookup(nw.Nodes()[g.Intn(nodes)], g.Uint64(), func(r chord.Result) {
			if r.OK {
				ok++
			}
		})
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	el := time.Since(start)
	if ok != lookups {
		return nil, fmt.Errorf("chord probe resolved %d of %d lookups", ok, lookups)
	}
	return map[string]float64{"overlay.chord_lookup_us": perCall(el, lookups, time.Microsecond)}, nil
}

// E13's offered load at scale 1.
const loadRate, loadDuration = 2000, 10 * time.Second

// probeRaft times RunLoad on E13's five-node Raft cluster.
func probeRaft(seed int64) (map[string]float64, error) {
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	cl, err := raft.NewCluster(s, nm, 5, netmodel.Europe, raft.Config{})
	if err != nil {
		return nil, err
	}
	allocs := heapAllocBytes()
	start := time.Now()
	st, err := cl.RunLoad(loadRate, loadDuration)
	el := time.Since(start)
	if err != nil {
		return nil, err
	}
	if st.Committed == 0 {
		return nil, fmt.Errorf("raft probe committed nothing")
	}
	return map[string]float64{
		"protocol.raft_runload_ms": float64(el) / float64(time.Millisecond),
		"protocol.raft_alloc_mb":   float64(allocatedSince(allocs)) / 1e6,
	}, nil
}

// probePBFT times RunLoad on E13's four-replica PBFT group.
func probePBFT(seed int64) (map[string]float64, error) {
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	cl, err := pbft.NewCluster(s, nm, 4, netmodel.Europe, pbft.Config{BatchSize: 200, BatchTimeout: 20 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	st, err := cl.RunLoad(loadRate, loadDuration)
	el := time.Since(start)
	if err != nil {
		return nil, err
	}
	if st.Committed == 0 {
		return nil, fmt.Errorf("pbft probe committed nothing")
	}
	return map[string]float64{
		"protocol.pbft_runload_ms":      float64(el) / float64(time.Millisecond),
		"protocol.pbft_msgs_per_commit": st.MsgsPerReq,
	}, nil
}

// probeOffchain times Pay on E18's hub and mesh topologies (60 nodes, 3
// hubs, mesh degree 6, 600k total capital).
func probeOffchain(seed int64) (map[string]float64, error) {
	const nodes, hubs, degree, capital, payments = 60, 3, 6, 600_000.0, 4000
	g := sim.New(sim.WithSeed(seed)).Stream("decentbench.offchain")
	out := make(map[string]float64)
	attempts, succeeded := 0, 0
	var objects uint64
	for _, hub := range []bool{true, false} {
		nw, err := offchain.NewNetwork(nodes)
		if err != nil {
			return nil, err
		}
		label := "mesh"
		if hub {
			label = "hub"
			err = offchain.BuildHubTopology(nw, hubs, capital/float64(hubs*(hubs-1)/2*4+nodes-hubs))
		} else {
			err = offchain.BuildMeshTopology(g, nw, degree, capital/float64(nodes*degree/2))
		}
		if err != nil {
			return nil, err
		}
		type payment struct {
			src, dst int
			amt      float64
		}
		var pays []payment
		for len(pays) < payments {
			src, dst := g.Intn(nodes), g.Intn(nodes)
			if src != dst {
				pays = append(pays, payment{src, dst, 1 + g.Float64()*20})
			}
		}
		objs := heapAllocObjects()
		start := time.Now()
		for _, p := range pays {
			nw.Pay(p.src, p.dst, p.amt)
		}
		out["protocol.offchain_pay_us."+label] = perCall(time.Since(start), payments, time.Microsecond)
		runtime.GC()
		objects += heapAllocObjects() - objs
		attempts += payments
		succeeded += nw.Payments()
	}
	out["protocol.offchain_pay_allocs"] = float64(objects) / float64(attempts)
	out["protocol.offchain_success_frac"] = frac(succeeded, attempts)
	return out, nil
}

var objectSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocObjects returns the cumulative heap objects the process
// allocated.
func heapAllocObjects() uint64 {
	metrics.Read(objectSample)
	return objectSample[0].Value.Uint64()
}
