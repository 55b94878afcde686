package kernel

import (
	"fmt"
	"math/bits"
)

// Calendar is a two-level timing wheel holding pending transmission
// attempts: station ids keyed by future slot numbers. It is the event
// queue of dynamic.WindowEngine, the windowed event engine, replacing a
// binary min-heap: Schedule and PopGroup cost amortized O(1) per attempt
// instead of O(log n), and popping a slot yields the whole colliding
// group at once.
//
//   - Level 0 is a window of calL0Len consecutive slots, one bucket per
//     slot, with an occupancy bitmap scanned by trailing-zero counts.
//   - Level 1 is calL1Len coarse buckets of calL0Len slots each — a
//     horizon of 2²⁶ slots past the current position. When level 0 is
//     exhausted, the next occupied coarse bucket is spilled into it.
//   - Attempts beyond the horizon go to an unordered overflow list; when
//     both wheels run dry the calendar re-bases at the overflow minimum.
//     With the paper's window schedules the horizon covers every window
//     drawn below ~10⁷ contenders, so overflow is a rare slow path.
//
// Each attempt is touched at most three times (insert, spill, pop), so a
// run costs O(attempts), not O(attempts·log n). The zero value is NOT
// ready to use; call NewCalendar.
type Calendar struct {
	l0     [][]int32 // per-slot buckets for [l0Base, l0Base+calL0Len)
	l0map  []uint64  // occupancy bitmap over l0
	l0Base uint64    // slot of l0[0]
	l0Cur  int       // next l0 index to scan

	l1     [][]calEv // coarse buckets for [l1Base, l1Base+horizon)
	l1map  []uint64  // occupancy bitmap over l1
	l1Base uint64    // slot of l1[0]'s span start
	l1Cur  int       // coarse bucket currently expanded into l0; -1 if none

	over []calEv // attempts beyond the horizon, unordered
	n    int
}

// calEv is one scheduled attempt held at level 1 or in overflow.
type calEv struct {
	slot uint64
	id   int32
}

const (
	calL0Bits   = 13
	calL0Len    = 1 << calL0Bits // slots per level-0 window
	calL1Bits   = 13
	calL1Len    = 1 << calL1Bits      // coarse buckets
	calHorizon  = calL0Len * calL1Len // slots covered past l1Base
	calMapWords = calL0Len / 64
)

// NewCalendar returns an empty calendar positioned at slot 0.
func NewCalendar() *Calendar {
	return &Calendar{
		l0:    make([][]int32, calL0Len),
		l0map: make([]uint64, calMapWords),
		l0Cur: calL0Len,
		l1:    make([][]calEv, calL1Len),
		l1map: make([]uint64, calMapWords),
		l1Cur: -1,
	}
}

// Len returns the number of scheduled attempts.
func (c *Calendar) Len() int { return c.n }

// Schedule inserts an attempt by station id at the given slot, which must
// not precede the most recently popped slot.
func (c *Calendar) Schedule(slot uint64, id int32) {
	c.n++
	if c.l1Cur >= 0 && slot >= c.l0Base && slot < c.l0Base+calL0Len {
		i := int(slot - c.l0Base)
		if i < c.l0Cur {
			c.n--
			panic(fmt.Sprintf("kernel: Calendar.Schedule(%d) behind scan position %d", slot, c.l0Base+uint64(c.l0Cur)))
		}
		c.l0[i] = append(c.l0[i], id)
		c.l0map[i>>6] |= 1 << (i & 63)
		return
	}
	if slot >= c.l1Base && slot < c.l1Base+calHorizon {
		j := int((slot - c.l1Base) >> calL0Bits)
		if j > c.l1Cur {
			c.l1[j] = append(c.l1[j], calEv{slot: slot, id: id})
			c.l1map[j>>6] |= 1 << (j & 63)
			return
		}
		// j ≤ l1Cur with the slot outside the l0 window: the past.
		c.n--
		panic(fmt.Sprintf("kernel: Calendar.Schedule(%d) before current window at %d", slot, c.l0Base))
	}
	if slot < c.l1Base {
		c.n--
		panic(fmt.Sprintf("kernel: Calendar.Schedule(%d) before wheel base %d", slot, c.l1Base))
	}
	c.over = append(c.over, calEv{slot: slot, id: id})
}

// PopGroup removes and returns the earliest occupied slot together with
// every station scheduled at it, appended to buf[:0] (so callers can
// reuse one buffer across events). It returns (0, nil) when empty.
func (c *Calendar) PopGroup(buf []int32) (uint64, []int32) {
	for c.n > 0 {
		// Level 0: next occupied slot bucket at or after the scan position.
		if i := nextBit(c.l0map, c.l0Cur); i >= 0 {
			slot := c.l0Base + uint64(i)
			buf = append(buf[:0], c.l0[i]...)
			c.l0[i] = c.l0[i][:0]
			c.l0map[i>>6] &^= 1 << (i & 63)
			c.l0Cur = i + 1
			c.n -= len(buf)
			return slot, buf
		}
		// Level 1: spill the next occupied coarse bucket into level 0.
		if j := nextBit(c.l1map, c.l1Cur+1); j >= 0 {
			c.l1Cur = j
			c.l0Base = c.l1Base + uint64(j)<<calL0Bits
			c.l0Cur = 0
			for _, e := range c.l1[j] {
				i := int(e.slot - c.l0Base)
				c.l0[i] = append(c.l0[i], e.id)
				c.l0map[i>>6] |= 1 << (i & 63)
			}
			c.l1[j] = c.l1[j][:0]
			c.l1map[j>>6] &^= 1 << (j & 63)
			continue
		}
		// Both wheels dry: re-base the horizon at the overflow minimum and
		// pull every attempt that now fits back into level 1.
		min := c.over[0].slot
		for _, e := range c.over[1:] {
			if e.slot < min {
				min = e.slot
			}
		}
		c.l1Base = min
		c.l1Cur = -1
		c.l0Cur = calL0Len
		kept := c.over[:0]
		for _, e := range c.over {
			if e.slot < c.l1Base+calHorizon {
				j := int((e.slot - c.l1Base) >> calL0Bits)
				c.l1[j] = append(c.l1[j], e)
				c.l1map[j>>6] |= 1 << (j & 63)
			} else {
				kept = append(kept, e)
			}
		}
		c.over = kept
	}
	return 0, nil
}

// PeekWithin reports the earliest occupied slot if it is at most limit,
// without removing anything. Crucially for callers that generate work
// lazily — live sessions add each aggregation window's arrivals to
// dynamic.WindowEngine only when the window opens — the scan position
// never advances past limit: level-1 buckets are spilled (and the overflow
// re-based) only when their span begins at or before limit, so after a
// miss every slot strictly after limit remains schedulable. The wheels
// are monotone (everything outside the level-0 window lies at higher
// slots), so inspecting the level-0 bitmap alone decides the answer
// once the earliest material is spilled in.
func (c *Calendar) PeekWithin(limit uint64) (uint64, bool) {
	for c.n > 0 {
		if c.l1Cur >= 0 {
			if i := nextBit(c.l0map, c.l0Cur); i >= 0 {
				slot := c.l0Base + uint64(i)
				if slot > limit {
					return 0, false
				}
				return slot, true
			}
		}
		if j := nextBit(c.l1map, c.l1Cur+1); j >= 0 {
			if c.l1Base+uint64(j)<<calL0Bits > limit {
				return 0, false
			}
			c.l1Cur = j
			c.l0Base = c.l1Base + uint64(j)<<calL0Bits
			c.l0Cur = 0
			for _, e := range c.l1[j] {
				i := int(e.slot - c.l0Base)
				c.l0[i] = append(c.l0[i], e.id)
				c.l0map[i>>6] |= 1 << (i & 63)
			}
			c.l1[j] = c.l1[j][:0]
			c.l1map[j>>6] &^= 1 << (j & 63)
			continue
		}
		min := c.over[0].slot
		for _, e := range c.over[1:] {
			if e.slot < min {
				min = e.slot
			}
		}
		if min > limit {
			return 0, false
		}
		c.l1Base = min
		c.l1Cur = -1
		c.l0Cur = calL0Len
		kept := c.over[:0]
		for _, e := range c.over {
			if e.slot < c.l1Base+calHorizon {
				j := int((e.slot - c.l1Base) >> calL0Bits)
				c.l1[j] = append(c.l1[j], e)
				c.l1map[j>>6] |= 1 << (j & 63)
			} else {
				kept = append(kept, e)
			}
		}
		c.over = kept
	}
	return 0, false
}

// nextBit returns the index of the first set bit at or after position
// from, or -1 if none.
func nextBit(words []uint64, from int) int {
	if from >= len(words)*64 {
		return -1
	}
	w := from >> 6
	if rem := words[w] >> (from & 63); rem != 0 {
		return from + bits.TrailingZeros64(rem)
	}
	for w++; w < len(words); w++ {
		if words[w] != 0 {
			return w<<6 + bits.TrailingZeros64(words[w])
		}
	}
	return -1
}
