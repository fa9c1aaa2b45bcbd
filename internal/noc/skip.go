package noc

import "math/bits"

// SkipHorizon is the "no constraint" answer for IdleSkipper.NextIdleEvent:
// far beyond any reachable cycle, but small enough that adding offsets to
// it cannot overflow int64.
const SkipHorizon = int64(1) << 62

// IdleSkipper is the optional interface a CycleObserver implements to
// participate in idle fast-forward. During a skipped span the observer's
// AfterCycle is never called; SkipIdle must patch the observer's state so
// the outcome is bit-identical to having observed every skipped cycle.
//
// An observer that does NOT implement IdleSkipper vetoes skipping
// entirely — correctness by default for per-cycle observers (system
// models, test probes) that cannot summarize a span.
type IdleSkipper interface {
	// NextIdleEvent returns the earliest cycle >= now at which the
	// observer must run normally again (its per-cycle work stops being a
	// no-op), bounding how far the network may fast-forward. Return
	// (SkipHorizon, true) for "no constraint" and ok=false to veto
	// skipping outright this cycle.
	NextIdleEvent(now int64) (next int64, ok bool)
	// SkipIdle accounts for the skipped span [from, to): the observer
	// patches whatever state its AfterCycle would have accumulated over
	// those cycles. Only called after its own NextIdleEvent (and every
	// other participant) approved the full span.
	SkipIdle(from, to int64)
}

// Quiescent reports whether the network holds no work that requires
// stepping cycles one at a time: no packet anywhere (in flight, queued,
// or buffered), no router owed a wake-up poll, and — when a gating policy
// is installed — a policy epoch that every subnet has already observed,
// so the power phase provably repeats its previous answers. Waking
// routers and scheduled sleep checks do not break quiescence; they bound
// the skip distance through NextEventCycle instead.
//
// The reference scan path is never quiescent: it is the baseline the
// skipping path is differenced against, and it touches every router every
// cycle by design.
//
// Call it only between cycles, never from inside Step.
func (n *Network) Quiescent() bool {
	if n.refScan || n.InFlight() != 0 {
		return false
	}
	if n.gating != nil {
		// A stale epoch means the next power phase re-evaluates
		// asleep/blocked routers with possibly new answers: step normally.
		ep := n.gating.PolicyEpoch()
		for _, s := range n.subnets {
			if s.lastEpoch != ep {
				return false
			}
		}
	}
	for _, s := range n.subnets {
		for _, w := range s.pollBits {
			if w != 0 {
				return false
			}
		}
	}
	return true
}

// NextEventCycle returns the earliest future cycle at which the network
// itself has scheduled work — a staged wheel event (flit arrival, credit
// return, ejection), a wake-up completion, or a live sleep-eligibility
// check — and ok=false if no such event exists. Callers must only skip a
// quiescent network up to (not past) this cycle: wheel slots carry no
// timestamps, so jumping past a pending entry would strand it for
// misapplication one wheel revolution later.
//
// Call it only between cycles, never from inside Step: the wheel-slot
// arithmetic assumes the clock sits between cycles.
func (n *Network) NextEventCycle() (at int64, ok bool) {
	at = SkipHorizon
	for _, s := range n.subnets {
		if e := s.nextEventCycle(n.now); e < at {
			at = e
		}
	}
	return at, at < SkipHorizon
}

// nextEventCycle is NextEventCycle for one subnet.
func (s *Subnet) nextEventCycle(now int64) int64 {
	min := SkipHorizon
	// Staged wheels: slot i relative to slot(now) gives the due cycle.
	ws := len(s.arrivals)
	base := s.slot(now)
	for i := 0; i < ws; i++ {
		if len(s.arrivals[i]) == 0 && len(s.credits[i]) == 0 &&
			len(s.niCredits[i]) == 0 && len(s.ejections[i]) == 0 {
			continue
		}
		due := now + int64((i-base+ws)%ws)
		if due < min {
			min = due
		}
	}
	// Waking routers complete at wakeAt.
	for i, w := range s.wakingBits {
		for w != 0 {
			node := i<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if at := s.routers[node].wakeAt; at < min {
				if at < now {
					at = now
				}
				min = at
			}
		}
	}
	// Live sleep-eligibility checks: an entry in slot j is live iff the
	// router's checkAt still equals the slot's due cycle (stale entries
	// were superseded by a reschedule or a sleep).
	cl := len(s.checkWheel)
	cbase := s.slotCheck(now)
	for j := 0; j < cl; j++ {
		if len(s.checkWheel[j]) == 0 {
			continue
		}
		due := now + int64((j-cbase+cl)%cl)
		if due >= min {
			continue
		}
		for _, node := range s.checkWheel[j] {
			if s.routers[node].checkAt == due {
				min = due
				break
			}
		}
	}
	return min
}

// TrySkipIdle attempts to fast-forward the network from Now to target
// without executing the intervening cycles, and returns how many cycles
// it skipped (0 on the reference scan, when the network is not quiescent,
// an observer vetoed, or the next event is due immediately). The skipped
// span is [Now, to) with to = min(target, NextEventCycle, every
// observer's NextIdleEvent): the cycle at `to` is then executed normally
// by the next Step. Power-state residency is bulk-accrued per subnet
// (state counts are constant across a quiescent span) and every observer
// patches its own state via SkipIdle, so the result is bit-identical to
// having stepped the span cycle by cycle.
//
// Call it only between cycles, never from inside Step: it advances the
// network clock.
func (n *Network) TrySkipIdle(target int64) int64 {
	if target <= n.now || !n.Quiescent() {
		return 0
	}
	to := target
	// The skip machinery runs once per quiescent span, not per cycle; its
	// cost amortises over the skipped cycles.
	if ev, ok := n.NextEventCycle(); ok && ev < to {
		to = ev
	}
	for _, o := range n.obs {
		sk, ok := o.(IdleSkipper)
		if !ok {
			return 0 // per-cycle observer: correctness by veto
		}
		next, ok := sk.NextIdleEvent(n.now)
		if !ok {
			return 0
		}
		if next < to {
			to = next
		}
	}
	if to <= n.now {
		return 0
	}
	k := to - n.now
	for _, s := range n.subnets {
		n.events.ActiveRouterCycles += k * int64(s.stateCount[PowerActive]+s.stateCount[PowerWaking])
	}
	for _, o := range n.obs {
		o.(IdleSkipper).SkipIdle(n.now, to)
	}
	n.now = to
	return k
}

// IdleSkip reports whether TrySkipIdle may fast-forward this network:
// always, except on the reference scan.
func (n *Network) IdleSkip() bool { return !n.refScan }
