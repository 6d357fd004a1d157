package kademlia

import (
	"math"
	"time"

	"repro/internal/overlay"
	"repro/internal/sim"
)

// Result summarizes one iterative lookup.
type Result struct {
	// Closest holds the responded contacts ordered by XOR distance to the
	// target, at most K entries.
	Closest []Contact
	// RPCs is the number of FIND_NODE queries issued.
	RPCs int
	// Timeouts is how many of those queries expired unanswered.
	Timeouts int
	// Latency is the virtual time from start to termination.
	Latency time.Duration
	// Converged is true if the lookup terminated because the K closest
	// known candidates all responded (as opposed to running out of
	// candidates).
	Converged bool
}

const (
	statePending = iota + 1
	stateInflight
	stateResponded
	stateFailed
)

type candidate struct {
	contact Contact
	state   int
}

type lookup struct {
	nw     *Network
	kern   *sim.Sim // the origin's kernel: every step of the lookup runs on it
	origin *Node
	target overlay.ID

	cands    []*candidate
	seen     map[overlay.ID]bool
	inflight int
	rpcs     int
	timeouts int
	start    time.Duration
	done     func(Result)
	finished bool
}

// Lookup runs an iterative FIND_NODE lookup from origin toward target,
// invoking done exactly once on termination. The origin must be online;
// otherwise done fires immediately with an empty result.
func (nw *Network) Lookup(origin *Node, target overlay.ID, done func(Result)) {
	kern := nw.kern(origin.Addr)
	l := &lookup{
		nw:     nw,
		kern:   kern,
		origin: origin,
		target: target,
		seen:   make(map[overlay.ID]bool),
		start:  kern.Now(),
		done:   done,
	}
	if !origin.online {
		l.finish(false)
		return
	}
	for _, c := range origin.table.Closest(target, nw.cfg.K) {
		l.add(c)
	}
	l.step()
}

func (l *lookup) add(c Contact) {
	if c.ID == l.origin.ID || l.seen[c.ID] {
		return
	}
	l.seen[c.ID] = true
	// Unbounded insertion: every candidate is kept, sorted by distance.
	l.cands = overlay.InsertClosest(l.cands, &candidate{contact: c, state: statePending},
		candidateID, l.target, math.MaxInt)
}

func candidateID(c *candidate) overlay.ID { return c.contact.ID }

// converged reports whether the K closest non-failed candidates have all
// responded — Kademlia's termination condition.
func (l *lookup) converged() bool {
	checked := 0
	for _, c := range l.cands {
		if c.state == stateFailed {
			continue
		}
		if c.state != stateResponded {
			return false
		}
		checked++
		if checked >= l.nw.cfg.K {
			break
		}
	}
	return checked > 0
}

func (l *lookup) step() {
	if l.finished {
		return
	}
	if l.converged() {
		l.finish(true)
		return
	}
	for _, c := range l.cands {
		if l.inflight >= l.nw.cfg.Alpha {
			break
		}
		if c.state != statePending {
			continue
		}
		c.state = stateInflight
		l.inflight++
		l.rpcs++
		cand := c
		l.nw.findNode(l.origin, c.contact, l.target, func(contacts []Contact, ok bool) {
			l.onReply(cand, contacts, ok)
		})
	}
	if l.inflight == 0 {
		// No candidates left to query and not converged: partial result.
		l.finish(false)
	}
}

func (l *lookup) onReply(c *candidate, contacts []Contact, ok bool) {
	if l.finished {
		return
	}
	l.inflight--
	if !ok {
		c.state = stateFailed
		l.timeouts++
		// Evict dead entries — the lazy repair every deployment performs.
		l.origin.table.Remove(c.contact.ID)
	} else {
		c.state = stateResponded
		l.origin.table.Add(c.contact)
		for _, nc := range contacts {
			l.add(nc)
		}
	}
	l.step()
}

func (l *lookup) finish(converged bool) {
	if l.finished {
		return
	}
	l.finished = true
	var closest []Contact
	for _, c := range l.cands {
		if c.state == stateResponded {
			closest = append(closest, c.contact)
			if len(closest) >= l.nw.cfg.K {
				break
			}
		}
	}
	if l.done != nil {
		l.done(Result{
			Closest:   closest,
			RPCs:      l.rpcs,
			Timeouts:  l.timeouts,
			Latency:   l.kern.Now() - l.start,
			Converged: converged,
		})
	}
}
