package kernel

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// TestCalendarDrainsInOrder inserts a random multiset of (slot, id)
// attempts — spanning level 0, level 1 and the overflow — and checks that
// PopGroup yields the groups in slot order, each slot's ids in scheduling
// order. Ids are a scrambled permutation, so popping sorted ids fails.
func TestCalendarDrainsInOrder(t *testing.T) {
	t.Parallel()
	src := rng.New(42)
	c := NewCalendar()
	want := map[uint64][]int32{}
	var slots []uint64
	for i := 0; i < 20000; i++ {
		var slot uint64
		switch i % 4 {
		case 0:
			slot = 1 + src.Uint64n(1000) // dense: many collisions
		case 1:
			slot = 1 + src.Uint64n(calL0Len*3) // level-0/1 boundary
		case 2:
			slot = 1 + src.Uint64n(calHorizon) // full wheel
		default:
			slot = 1 + src.Uint64n(calHorizon*5) // overflow
		}
		id := int32(i * 7919 % 20000)
		c.Schedule(slot, id)
		if len(want[slot]) == 0 {
			slots = append(slots, slot)
		}
		want[slot] = append(want[slot], id)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	if c.Len() != 20000 {
		t.Fatalf("Len = %d, want 20000", c.Len())
	}
	var buf []int32
	for _, s := range slots {
		var got uint64
		got, buf = c.PopGroup(buf)
		if got != s {
			t.Fatalf("popped slot %d, want %d", got, s)
		}
		if !slices.Equal(buf, want[s]) {
			t.Fatalf("slot %d: ids %v, want %v in scheduling order", s, buf, want[s])
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", c.Len())
	}
	if s, ids := c.PopGroup(buf); s != 0 || ids != nil {
		t.Fatalf("empty pop = (%d, %v), want (0, nil)", s, ids)
	}
}

// TestCalendarInterleaved alternates pops with reschedules — the pattern
// of the event-driven engines (pop a collision group, reschedule each
// collider further out) — against a plain sorted-map reference.
func TestCalendarInterleaved(t *testing.T) {
	t.Parallel()
	src := rng.New(7)
	c := NewCalendar()
	ref := map[uint64][]int32{}
	for id := int32(0); id < 500; id++ {
		slot := 1 + src.Uint64n(64)
		c.Schedule(slot, id)
		ref[slot] = append(ref[slot], id)
	}
	var buf []int32
	for events := 0; c.Len() > 0; events++ {
		if events > 1_000_000 {
			t.Fatal("calendar failed to drain")
		}
		var slot uint64
		slot, buf = c.PopGroup(buf)
		refIDs := ref[slot]
		delete(ref, slot)
		if len(refIDs) != len(buf) {
			t.Fatalf("slot %d: %d ids, reference %d", slot, len(buf), len(refIDs))
		}
		if len(buf) == 1 {
			continue // success: station departs
		}
		for _, id := range buf {
			// Reschedule each collider a random distance ahead, sometimes
			// far enough to exercise the overflow path.
			d := 1 + src.Uint64n(1<<uint(src.Uint64n(28)))
			c.Schedule(slot+d, id)
			ref[slot+d] = append(ref[slot+d], id)
		}
	}
	if len(ref) != 0 {
		t.Fatalf("reference still holds %d slots", len(ref))
	}
}

// TestCalendarPastSchedulePanics: scheduling behind the scan position is
// a caller bug and must fail loudly.
func TestCalendarPastSchedulePanics(t *testing.T) {
	t.Parallel()
	c := NewCalendar()
	c.Schedule(100, 1)
	var buf []int32
	if s, _ := c.PopGroup(buf); s != 100 {
		t.Fatalf("popped %d, want 100", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule into the past did not panic")
		}
	}()
	c.Schedule(99, 2)
}

// TestCalendarPendingSchedulePanics: an id has at most one pending
// attempt. Scheduling it again, whether it waits in level 0, level 1 or
// the overflow, is a caller bug that must panic and leave the lists
// intact.
func TestCalendarPendingSchedulePanics(t *testing.T) {
	t.Parallel()
	for _, first := range []uint64{5, 70_000, calHorizon + 5} {
		c := NewCalendar()
		c.Schedule(first, 1)
		c.Schedule(first, 2)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rescheduling id 1, pending at %d, did not panic", first)
				}
			}()
			c.Schedule(3, 1)
		}()
		if slot, ids := c.PopGroup(nil); slot != first || !slices.Equal(ids, []int32{1, 2}) || c.Len() != 0 {
			t.Fatalf("pop = %d %v with Len %d, want %d [1 2] with Len 0", slot, ids, c.Len(), first)
		}
		c.Schedule(first+1, 1) // popped ids are free again
		if slot, ids := c.PopGroup(nil); slot != first+1 || !slices.Equal(ids, []int32{1}) {
			t.Fatalf("pop = %d %v, want %d [1]", slot, ids, first+1)
		}
	}
}

// TestCalendarPeekWithin: the lazy-generation contract of PeekWithin —
// a miss must leave every slot strictly after the limit schedulable,
// across level-0, level-1 and overflow material.
func TestCalendarPeekWithin(t *testing.T) {
	t.Parallel()
	c := NewCalendar()
	if _, ok := c.PeekWithin(1 << 40); ok {
		t.Fatal("empty calendar peeked an event")
	}

	// Level-0 material beyond the limit: miss, then schedule behind it.
	c.Schedule(100, 1)
	if _, ok := c.PeekWithin(50); ok {
		t.Fatal("peek(50) saw the event at 100")
	}
	c.Schedule(60, 2) // must not panic: 60 > limit 50
	if slot, ok := c.PeekWithin(60); !ok || slot != 60 {
		t.Fatalf("peek(60) = %d, %v, want 60, true", slot, ok)
	}
	slot, group := c.PopGroup(nil)
	if slot != 60 || len(group) != 1 || group[0] != 2 {
		t.Fatalf("pop = %d %v, want 60 [2]", slot, group)
	}

	// Level-1 material: the far bucket must not be spilled on a miss.
	c2 := NewCalendar()
	c2.Schedule(70_000, 3) // beyond the first level-0 window
	if _, ok := c2.PeekWithin(8_191); ok {
		t.Fatal("peek(8191) saw the event at 70000")
	}
	c2.Schedule(9_000, 4)
	if slot, ok := c2.PeekWithin(9_000); !ok || slot != 9_000 {
		t.Fatalf("peek(9000) = %d, %v, want 9000, true", slot, ok)
	}
	if slot, _ := c2.PopGroup(nil); slot != 9_000 {
		t.Fatalf("pop = %d, want 9000", slot)
	}
	if slot, ok := c2.PeekWithin(1 << 40); !ok || slot != 70_000 {
		t.Fatalf("peek(huge) = %d, %v, want 70000, true", slot, ok)
	}

	// Overflow material: a miss must not re-base the wheel either.
	c3 := NewCalendar()
	const far = uint64(calHorizon) + 5
	c3.Schedule(far, 5)
	if _, ok := c3.PeekWithin(1000); ok {
		t.Fatal("peek(1000) saw the overflow event")
	}
	c3.Schedule(2000, 6)
	if slot, ok := c3.PeekWithin(2000); !ok || slot != 2000 {
		t.Fatalf("peek(2000) = %d, %v, want 2000, true", slot, ok)
	}
	if slot, _ := c3.PopGroup(nil); slot != 2000 {
		t.Fatal("overflow interleave pop mismatch")
	}
	if slot, ok := c3.PeekWithin(far); !ok || slot != far {
		t.Fatalf("peek(far) = %d, %v, want %d, true", slot, ok, far)
	}
	if slot, _ := c3.PopGroup(nil); slot != far {
		t.Fatalf("final pop = %d, want %d", slot, far)
	}
	if c3.Len() != 0 {
		t.Fatalf("len = %d after draining", c3.Len())
	}

	// Peek never consumes: repeated peeks and the following pop agree.
	c4 := NewCalendar()
	c4.Schedule(7, 7)
	c4.Schedule(7, 8)
	for i := 0; i < 3; i++ {
		if slot, ok := c4.PeekWithin(7); !ok || slot != 7 {
			t.Fatalf("peek #%d = %d, %v", i, slot, ok)
		}
	}
	if slot, group := c4.PopGroup(nil); slot != 7 || len(group) != 2 {
		t.Fatalf("pop = %d %v, want slot 7 with 2 ids", slot, group)
	}
}

// FuzzCalendar decodes bytes into Schedule, PeekWithin and PopGroup steps
// and checks each against a reference map of slot → ids in scheduling
// order. Each step takes four bytes: an operation, then a distance past
// the floor the contract allows (dense, within level 0, within the
// level-1 horizon, or beyond it, which forces re-bases). The floor is s+1
// after a pop at s, s after a peek hit at s and limit+1 after a miss at
// limit. The calendar is drained at the end.
func FuzzCalendar(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCalendar()
		ref := map[uint64][]int32{}
		pending := 0
		var floor uint64
		var idle []int32 // ids with nothing pending, reused last first
		fresh := int32(0)
		earliest := func() (uint64, bool) {
			var min uint64
			found := false
			for s := range ref {
				if !found || s < min {
					min, found = s, true
				}
			}
			return min, found
		}
		pop := func() bool {
			want, ok := earliest()
			slot, ids := c.PopGroup(nil)
			if !ok {
				if ids != nil {
					t.Fatalf("empty calendar popped %d %v", slot, ids)
				}
				return false
			}
			if slot != want || !slices.Equal(ids, ref[want]) {
				t.Fatalf("pop = %d %v, want %d %v", slot, ids, want, ref[want])
			}
			delete(ref, want)
			pending -= len(ids)
			idle = append(idle, ids...)
			floor = want + 1
			return true
		}
		for ; len(data) >= 4; data = data[4:] {
			op, d := data[0], fuzzDistance(data[1], data[2], data[3])
			switch op % 4 {
			case 0, 1:
				id := fresh
				if n := len(idle); n > 0 && op&4 != 0 {
					id, idle = idle[n-1], idle[:n-1]
				} else {
					fresh++
				}
				c.Schedule(floor+d, id)
				ref[floor+d] = append(ref[floor+d], id)
				pending++
			case 2:
				limit := floor + d
				want, ok := earliest()
				ok = ok && want <= limit
				slot, hit := c.PeekWithin(limit)
				if hit != ok || (ok && slot != want) {
					t.Fatalf("PeekWithin(%d) = %d, %v; want %d, %v", limit, slot, hit, want, ok)
				}
				if hit {
					floor = slot
				} else {
					floor = limit + 1
				}
			default:
				pop()
			}
			if c.Len() != pending {
				t.Fatalf("Len = %d, want %d", c.Len(), pending)
			}
		}
		for pop() {
		}
		if c.Len() != 0 {
			t.Fatalf("Len = %d after draining", c.Len())
		}
	})
}

// fuzzDistance maps three bytes to a distance past the floor.
func fuzzDistance(class, hi, lo byte) uint64 {
	v := uint64(hi)<<8 | uint64(lo)
	switch class % 4 {
	case 0:
		return v % 16 // dense: collisions
	case 1:
		return v % (2 * calL0Len) // level 0 and the next coarse bucket
	case 2:
		return v << 10 // across the level-1 horizon
	default:
		return calHorizon + v<<12 // overflow
	}
}
