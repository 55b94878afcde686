// Package sim implements an exact per-node simulator of the paper's
// communication model (§2): a synchronous single-hop Radio Network with a
// shared slotted channel and no collision detection.
//
// In every slot each active station independently decides whether to
// transmit. If exactly one station transmits, the slot is a success: the
// message is delivered, every non-transmitting station receives it, and
// the transmitter becomes idle (it gets an acknowledgement, as in the IEEE
// 802.11 MAC — §2 of the paper). If zero or more than one station
// transmits, stations perceive only noise: silence and collision are
// indistinguishable.
//
// The simulator executes protocol automata node by node and slot by slot.
// It is the ground truth against which the scalable aggregate engines in
// internal/engine and the windowed event engine in internal/dynamic are
// validated; use those engines for large k.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/protocol"
	"repro/internal/rng"
)

// Outcome classifies what happened on the channel in one slot.
type Outcome uint8

// Channel outcomes. A station cannot distinguish Silence from Collision
// (channel without collision detection); the distinction exists only in
// the simulator's omniscient view.
const (
	Silence Outcome = iota + 1
	Success
	Collision
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Silence:
		return "silence"
	case Success:
		return "success"
	case Collision:
		return "collision"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// SlotRecord describes one slot for tracing.
type SlotRecord struct {
	Slot         uint64
	Transmitters int
	Outcome      Outcome
	// Deliverer is the index of the station whose message was delivered,
	// or -1 if the slot was not a success.
	Deliverer int
	// Active is the number of stations still holding a message at the
	// start of the slot.
	Active int
}

// Result summarizes an execution.
type Result struct {
	// Slots is the number of communication steps until the last message
	// was delivered (the static k-selection cost measured in the paper).
	Slots uint64
	// Delivered is the number of messages delivered (= k on success).
	Delivered int
	// Successes, Collisions and Silences count slot outcomes up to and
	// including the completion slot.
	Successes  uint64
	Collisions uint64
	Silences   uint64
	// DeliveryOrder lists station indices in order of delivery when the
	// WithDeliveryOrder option is set; nil otherwise.
	DeliveryOrder []int
}

// ErrSlotLimit is returned when an execution exceeds its slot budget
// before all messages are delivered.
var ErrSlotLimit = errors.New("sim: slot limit exceeded before all messages were delivered")

// CDStation is implemented by stations that run on a channel WITH
// collision detection (the related-work model of §2: Martel, Willard,
// and the tree algorithms of Capetanakis, Hayes and Tsybakov–Mikhailov).
// The simulator delivers the full ternary outcome to such stations
// instead of the reception-only Feedback of the paper's model.
type CDStation interface {
	protocol.Station
	// FeedbackOutcome reports the slot's ternary outcome. transmitted is
	// what WillTransmit returned. It is called instead of Feedback.
	FeedbackOutcome(slot uint64, transmitted bool, outcome Outcome)
}

// config carries the run options.
type config struct {
	maxSlots      uint64
	trace         func(SlotRecord)
	deliveryOrder bool
	arrivals      []uint64
	jammed        func(slot uint64) bool
	stopAfter     int
}

// Option configures Run.
type Option func(*config)

// WithMaxSlots caps the execution length; Run returns ErrSlotLimit if the
// cap is hit. The default cap is 100 million slots — far beyond any
// correct protocol's completion time for the sizes this engine is meant
// for — so that a livelocked protocol under test terminates.
func WithMaxSlots(n uint64) Option {
	return func(c *config) { c.maxSlots = n }
}

// WithTrace installs a per-slot callback, invoked after the slot resolves.
func WithTrace(fn func(SlotRecord)) Option {
	return func(c *config) { c.trace = fn }
}

// WithDeliveryOrder records the order in which stations deliver.
func WithDeliveryOrder() Option {
	return func(c *config) { c.deliveryOrder = true }
}

// WithArrivals sets per-station activation slots: station i becomes active
// (holds a message) at the start of slot arrivals[i]. len(arrivals) must
// equal the number of stations; slots are numbered from 1. The default is
// the paper's static (batched) arrival: every station active from slot 1.
//
// This option supports the dynamic-arrival extension (§6 future work);
// completion is still defined as the delivery of all messages.
func WithArrivals(arrivals []uint64) Option {
	return func(c *config) { c.arrivals = arrivals }
}

// WithJammer injects an adversary that transmits garbage in every slot
// for which jammed returns true: any station transmission in such a slot
// collides, and listeners hear noise. Failure injection for robustness
// tests; not part of the paper's model.
func WithJammer(jammed func(slot uint64) bool) Option {
	return func(c *config) { c.jammed = jammed }
}

// WithStopAfterDeliveries ends the execution as soon as n messages have
// been delivered (n ≥ 1). Used for leader election (n = 1) and for
// time-to-first-delivery experiments (the Ω(log n) lower bound of
// Kushilevitz–Mansour cited in §2 concerns exactly this quantity).
func WithStopAfterDeliveries(n int) Option {
	return func(c *config) { c.stopAfter = n }
}

// Run simulates the stations until every one of them has delivered its
// message, and returns the execution summary. Stations are driven in
// index order within each slot using the single randomness source src,
// so executions are fully reproducible from (stations, seed).
func Run(stations []protocol.Station, src *rng.Rand, opts ...Option) (Result, error) {
	cfg := config{maxSlots: 100_000_000}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.arrivals != nil && len(cfg.arrivals) != len(stations) {
		return Result{}, fmt.Errorf("sim: %d arrival slots for %d stations", len(cfg.arrivals), len(stations))
	}

	var res Result
	if cfg.deliveryOrder {
		res.DeliveryOrder = make([]int, 0, len(stations))
	}
	if len(stations) == 0 {
		return res, nil
	}

	// active holds indices of stations that hold an undelivered message;
	// pending holds not-yet-arrived stations when arrivals are staggered.
	active := make([]int, 0, len(stations))
	var pending []int
	if cfg.arrivals == nil {
		for i := range stations {
			active = append(active, i)
		}
	} else {
		for i := range stations {
			if cfg.arrivals[i] <= 1 {
				active = append(active, i)
			} else {
				pending = append(pending, i)
			}
		}
	}

	transmitters := make([]int, 0, len(stations))
	for slot := uint64(1); ; slot++ {
		if slot > cfg.maxSlots {
			return res, fmt.Errorf("%w (limit %d, delivered %d/%d)",
				ErrSlotLimit, cfg.maxSlots, res.Delivered, len(stations))
		}
		// Activate stations whose messages arrive at this slot.
		if len(pending) > 0 {
			kept := pending[:0]
			for _, i := range pending {
				if cfg.arrivals[i] <= slot {
					active = append(active, i)
				} else {
					kept = append(kept, i)
				}
			}
			pending = kept
		}

		transmitters = transmitters[:0]
		for _, i := range active {
			if stations[i].WillTransmit(slot, src) {
				transmitters = append(transmitters, i)
			}
		}

		jammed := cfg.jammed != nil && cfg.jammed(slot)
		rec := SlotRecord{Slot: slot, Transmitters: len(transmitters), Deliverer: -1, Active: len(active)}
		switch {
		case jammed:
			// The adversary transmits: any station transmission collides
			// with it, and an empty slot carries only garbage — noise
			// either way, recorded as a collision.
			rec.Outcome = Collision
			res.Collisions++
		case len(transmitters) == 0:
			rec.Outcome = Silence
			res.Silences++
		case len(transmitters) == 1:
			rec.Outcome = Success
			rec.Deliverer = transmitters[0]
			res.Successes++
		default:
			rec.Outcome = Collision
			res.Collisions++
		}

		// notify delivers the slot outcome to one still-active station,
		// routing ternary feedback to collision-detection stations.
		notify := func(i int, transmitted bool) {
			if cd, ok := stations[i].(CDStation); ok {
				cd.FeedbackOutcome(slot, transmitted, rec.Outcome)
				return
			}
			stations[i].Feedback(slot, transmitted, rec.Outcome == Success)
		}

		if rec.Outcome == Success {
			res.Delivered++
			if cfg.deliveryOrder {
				res.DeliveryOrder = append(res.DeliveryOrder, rec.Deliverer)
			}
			// Remove the deliverer, then notify the remaining active
			// stations. A success slot has exactly one transmitter — the
			// deliverer — so every remaining station was listening and
			// receives the message.
			kept := active[:0]
			for _, i := range active {
				if i != rec.Deliverer {
					kept = append(kept, i)
				}
			}
			active = kept
			for _, i := range active {
				notify(i, false)
			}
		} else {
			// No delivery: transmitters heard nothing (they were talking),
			// listeners heard noise. Neither receives a message.
			j := 0
			for _, i := range active {
				transmitted := j < len(transmitters) && transmitters[j] == i
				if transmitted {
					j++
				}
				notify(i, transmitted)
			}
		}

		if cfg.trace != nil {
			cfg.trace(rec)
		}
		if res.Delivered == len(stations) || (cfg.stopAfter > 0 && res.Delivered >= cfg.stopAfter) {
			res.Slots = slot
			return res, nil
		}
	}
}
