package kernel

import (
	"fmt"
	"math"
	"math/bits"
)

// Calendar is a two-level timing wheel holding pending transmission
// attempts: station ids keyed by future slot numbers. It is the event
// queue of dynamic.WindowEngine: Schedule and PopGroup cost amortized
// O(1) per attempt, against O(log n) for the binary heap it replaced,
// and popping a slot yields the whole colliding group at once.
//
//   - Level 0 holds calL0Len consecutive slots, one bucket each: the span
//     of level-1 bucket l1Cur.
//   - Level 1 holds calL1Len coarse buckets of calL0Len slots, a horizon
//     of 2²⁶ slots past l1Base. When level 0 runs dry, the next occupied
//     coarse bucket spills into it.
//   - Attempts beyond the horizon wait in an overflow bucket; when both
//     wheels run dry the calendar re-bases at its minimum. The paper's
//     window schedules stay inside the horizon below ~10⁷ contenders.
//
// Every bucket is a FIFO list threaded through one link per station id,
// beside which the id's pending slot is kept: a fixed 128 KiB of list
// ends, plus per-id arrays that grow by doubling. An id has at most one
// pending attempt; scheduling it again panics, as scheduling into the
// past does. Spills and re-bases re-file ids in list order through
// Schedule's insert path, so every attempt for a slot passes through the
// same buckets in the same order and pops in scheduling order. Outside
// the overflow an attempt is touched at most three times (insert, spill,
// pop). The zero value is NOT ready to use; call NewCalendar.
type Calendar struct {
	lists  []calList // level-0 slot buckets, then level-1 coarse buckets
	over   calList   // attempts beyond the horizon, in scheduling order
	occ    []uint64  // occupancy bitmap over lists
	link   []int32   // per id: next id in its bucket, calNil, or calIdle
	at     []uint64  // per id: slot of its pending attempt
	l0Base uint64    // slot of level-0 bucket 0
	l0Cur  int       // next level-0 bucket to scan
	l1Base uint64    // slot where level-1 bucket 0 begins
	l1Cur  int       // level-1 bucket that level 0 spans
	n      int
}

// calList is a FIFO list of ids; tail is stale while head is calNil.
type calList struct{ head, tail int32 }

const (
	calL0Bits   = 13
	calL0Len    = 1 << calL0Bits // slots per level-0 window
	calL1Bits   = 13
	calL1Len    = 1 << calL1Bits      // coarse buckets
	calHorizon  = calL0Len * calL1Len // slots covered past l1Base
	calMapWords = calL0Len / 64

	calNil  = -1 // end of a list
	calIdle = -2 // link of an id with no pending attempt
)

// NewCalendar returns an empty calendar positioned at slot 0.
func NewCalendar() *Calendar {
	lists := make([]calList, calL0Len+calL1Len)
	for b := range lists {
		lists[b].head = calNil
	}
	return &Calendar{lists: lists, over: calList{head: calNil}, occ: make([]uint64, 2*calMapWords)}
}

// Len returns the number of scheduled attempts.
func (c *Calendar) Len() int { return c.n }

// Schedule inserts an attempt by station id at the given slot, which must
// follow the last popped slot; id, a small non-negative index, must have
// no attempt pending.
func (c *Calendar) Schedule(slot uint64, id int32) {
	if scan := c.l0Base + uint64(c.l0Cur); slot < scan {
		panic(fmt.Sprintf("kernel: Calendar.Schedule(%d) behind scan position %d", slot, scan))
	}
	if int(id) >= len(c.link) {
		c.grow(int(id) + 1)
	}
	if c.link[id] != calIdle {
		panic(fmt.Sprintf("kernel: Calendar.Schedule(%d, %d): id already pending at %d", slot, id, c.at[id]))
	}
	c.at[id] = slot
	c.file(id)
	c.n++
}

// grow extends the per-id arrays to at least n entries, doubling.
func (c *Calendar) grow(n int) {
	n = max(n, 2*len(c.link))
	link := make([]int32, n)
	for i := copy(link, c.link); i < n; i++ {
		link[i] = calIdle
	}
	at := make([]uint64, n)
	copy(at, c.at)
	c.link, c.at = link, at
}

// file appends id to the bucket holding its slot, which lies at or
// after the scan position: a level-0 slot bucket, a level-1 coarse
// bucket past l1Cur, or the overflow.
func (c *Calendar) file(id int32) {
	slot := c.at[id]
	l := &c.over
	if slot-c.l1Base < calHorizon {
		b := calL0Len + int((slot-c.l1Base)>>calL0Bits)
		if slot-c.l0Base < calL0Len {
			b = int(slot - c.l0Base)
		}
		c.occ[b>>6] |= 1 << (b & 63)
		l = &c.lists[b]
	}
	c.link[id] = calNil
	if l.head == calNil {
		l.head = id
	} else {
		c.link[l.tail] = id
	}
	l.tail = id
}

// PopGroup removes and returns the earliest occupied slot together with
// every station scheduled at it, in scheduling order, appended to
// buf[:0] (so callers can reuse one buffer across events). It returns
// (0, nil) when empty.
func (c *Calendar) PopGroup(buf []int32) (uint64, []int32) {
	i := c.advance(math.MaxUint64)
	if i < 0 {
		return 0, nil
	}
	buf = buf[:0]
	for id := c.lists[i].head; id != calNil; {
		buf = append(buf, id)
		next := c.link[id]
		c.link[id] = calIdle
		id = next
	}
	c.lists[i].head = calNil
	c.occ[i>>6] &^= 1 << (i & 63)
	c.l0Cur = i + 1
	c.n -= len(buf)
	return c.l0Base + uint64(i), buf
}

// PeekWithin reports the earliest occupied slot if it is at most limit,
// without removing anything. The scan position never passes limit, so
// after a miss every slot after limit stays schedulable: live sessions
// add each window's arrivals to dynamic.WindowEngine only as it opens.
func (c *Calendar) PeekWithin(limit uint64) (uint64, bool) {
	i := c.advance(limit)
	if i < 0 {
		return 0, false
	}
	return c.l0Base + uint64(i), true
}

// advance returns the level-0 bucket of the earliest pending slot, or -1
// if none lies at or before limit. A dry level 0 takes the next occupied
// coarse bucket or, with level 1 dry too, re-bases both wheels at the
// overflow minimum, either only if the opened span begins by limit.
// Everything outside level 0 lies at higher slots.
func (c *Calendar) advance(limit uint64) int {
	for c.n > 0 {
		if i := nextBit(c.occ[:calMapWords], c.l0Cur); i >= 0 {
			if c.l0Base+uint64(i) > limit {
				return -1
			}
			return i
		}
		l, base := &c.over, uint64(math.MaxUint64)
		j := nextBit(c.occ[calMapWords:], c.l1Cur+1)
		if j >= 0 {
			l, base = &c.lists[calL0Len+j], c.l1Base+uint64(j)<<calL0Bits
		} else {
			for id := c.over.head; id != calNil; id = c.link[id] {
				base = min(base, c.at[id])
			}
		}
		if l.head == calNil || base > limit { // every bucket empty: never spin
			return -1
		}
		if j < 0 {
			j, c.l1Base = 0, base
		} else {
			b := calL0Len + j
			c.occ[b>>6] &^= 1 << (b & 63)
		}
		c.l1Cur, c.l0Base, c.l0Cur = j, base, 0
		id := l.head
		l.head = calNil
		for id != calNil {
			next := c.link[id]
			c.file(id)
			id = next
		}
	}
	return -1
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
