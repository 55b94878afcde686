package dynamic

import (
	"math"
	"sort"

	"repro/internal/protocol"
	"repro/internal/rng"
)

// This file drives fair protocols under dynamic arrivals (RunFair).
//
// Arrivals desynchronize the stations' controllers, so no aggregate
// shortcut applies: each active station still draws one Bernoulli coin
// per slot, in the per-node simulator's activation order, and the run is
// byte-identical to sim.Run over protocol.FairStation (RunMixed with
// NewFairStation, the oracle of TestRunFairMatchesPerSlot). What it saves
// is the controller traffic. Every station hears the same success or
// no-success (§2), so a protocol.SkipController's probability is fixed by
// its current SkipPhase until the phase ends or a success arrives. A
// station whose phase holds a constant regular class caches the phase's
// two probabilities, reads them in place of Prob, and touches its
// controller only at those two events: SkipTo(end+1) at a quiet phase
// end, SkipTo(s) then Observe(s, true) at a success in slot s. The
// observe pass over the backlog is skipped on every slot that carries
// neither, which is most of them.
//
// Three cases stay on Prob and Observe:
//
//   - a station's first slot. A fresh controller's cursor is slot 1, so
//     on the global clock a phase requested at a later arrival would
//     replay the slots before it as quiet ones;
//   - a controller whose phase varies (RegularLo != RegularHi; One-Fail
//     Adaptive's κ̃ climbs every AT-step). No one probability stands for
//     the phase, and a bulk SkipTo can round κ̃ differently from repeated
//     per-slot increments, so it stays per slot for the rest of the run;
//   - a controller without the skip contract.

// fairStation is one active station. Its cached phase, when it has one,
// is in channel-slot coordinates.
type fairStation struct {
	cached bool
	next   uint64  // next special slot of the phase (0: no special class)
	period uint64  // special-slot spacing
	sp, rp float64 // special and regular probability
	end    uint64  // last slot of the phase

	ctrl protocol.Controller
	skip protocol.SkipController // nil: driven per slot for the whole run
	off  uint64                  // controller slot = channel slot − off
	msg  int                     // message index
}

// refresh caches the phase that starts at channel slot, the controller's
// cursor, or demotes the station to per-slot driving if the phase varies.
func (st *fairStation) refresh(slot uint64) {
	local := slot - st.off
	ph := st.skip.SkipPhase(local)
	if ph.RegularLo != ph.RegularHi {
		st.skip, st.cached = nil, false
		return
	}
	st.cached, st.sp, st.rp, st.period, st.next = true, ph.SpecialProb, ph.RegularLo, ph.Period, 0
	if ph.Period >= 2 {
		st.next = slot + (ph.SpecialResidue+ph.Period-local%ph.Period)%ph.Period
	}
	st.end = slot
	if ph.End > local {
		st.end = slot + min(ph.End-local, math.MaxUint64-slot)
	}
}

// runFair runs the workload with ctrls[i] carrying message i.
func runFair(w Workload, ctrls []protocol.Controller, src *rng.Rand, cfg *config) Result {
	var res Result
	n := w.N()
	if n == 0 {
		res.Completed = true
		return res
	}
	// Stations join in sim.Run's order: by arrival (slot 0 counts as
	// 1), ties by message index.
	type arrival struct {
		slot uint64
		msg  int
	}
	queue := make([]arrival, n)
	for i, a := range w.Arrivals {
		queue[i] = arrival{max(a, 1), i}
	}
	sort.SliceStable(queue, func(a, b int) bool { return queue[a].slot < queue[b].slot })

	active := make([]fairStation, 0, n)
	perSlot := 0                     // active stations not on a cached phase
	minEnd := uint64(math.MaxUint64) // earliest phase end among the rest
	for slot := uint64(1); ; slot++ {
		if len(active) == 0 {
			// An empty channel has nothing to observe: go to the next
			// arrival.
			slot = max(slot, queue[0].slot)
		}
		if slot > cfg.maxSlots {
			return res // budget exhausted: partial results
		}
		for len(queue) > 0 && queue[0].slot <= slot {
			i := queue[0].msg
			queue = queue[1:]
			st := fairStation{ctrl: ctrls[i], msg: i}
			st.skip, _ = ctrls[i].(protocol.SkipController)
			if cfg.clock == ClockLocal {
				st.off = w.Arrivals[i] - 1
			}
			active = append(active, st)
			perSlot++
		}
		if len(active) > res.MaxBacklog {
			res.MaxBacklog, res.PeakBacklogSlot = len(active), slot
		}

		tx, sender := 0, 0
		for j := range active {
			st := &active[j]
			var p float64
			switch {
			case !st.cached:
				p = st.ctrl.Prob(slot - st.off)
			case slot == st.next:
				p = st.sp
				st.next += st.period
			default:
				p = st.rp
			}
			if src.Bernoulli(p) {
				tx++
				sender = j
			}
		}
		jammed := cfg.jammed != nil && cfg.jammed(slot)
		success := tx == 1 && !jammed
		if tx > 1 || (tx == 1 && jammed) {
			res.Collisions++
		}
		if success {
			res.Delivered++
			res.Latency.Add(float64(slot - w.Arrivals[active[sender].msg] + 1))
			active = append(active[:sender], active[sender+1:]...)
			if res.Delivered == n {
				res.Completed, res.Completion = true, slot
				return res
			}
		} else if perSlot == 0 && slot != minEnd {
			continue // nothing any controller would notice
		}

		perSlot, minEnd = 0, math.MaxUint64
		for j := range active {
			st := &active[j]
			local := slot - st.off
			switch {
			case !st.cached:
				st.ctrl.Observe(local, success)
				if st.skip != nil {
					st.refresh(slot + 1)
				}
			case success:
				st.skip.SkipTo(local)
				st.ctrl.Observe(local, true)
				st.refresh(slot + 1)
			case slot == st.end:
				st.skip.SkipTo(local + 1)
				st.refresh(slot + 1)
			}
			if st.cached {
				minEnd = min(minEnd, st.end)
			} else {
				perSlot++
			}
		}
	}
}
