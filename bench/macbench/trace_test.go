package main

import (
	"math"
	"testing"
)

func TestAttributeSplitsOverlapsAndAddsUp(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "op", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 60},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 40, End: 90},
		{Trace: 1, ID: 4, Parent: 3, Name: "c", Start: 70, End: 120}, // clipped to b's end
		{Trace: 2, ID: 5, Name: "op", Start: 200, End: 210},
		{Trace: 2, ID: 6, Parent: 5, Name: "a", Start: 200, End: 205},
	}
	b := attribute(spans)
	want := map[string]float64{
		"a": 30 + 10 + 5, // alone on 10–40, sharing 40–60 with b, then trace 2
		"b": 10 + 10,     // sharing 40–60, alone on 60–70
		"c": 20,          // 70–90, inside b
	}
	for name, w := range want {
		if got := b.Self[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, got, w)
		}
	}
	if b.Ops != 2 || b.Total != 110 || math.Abs(b.Remainder-(10+10+5)) > 1e-9 {
		t.Errorf("ops %d total %v remainder %v, want 2, 110, 25", b.Ops, b.Total, b.Remainder)
	}
	sum := b.Remainder
	for _, v := range b.Self {
		sum += v
	}
	if math.Abs(sum-b.Total) > 1e-9 {
		t.Errorf("parts add up to %v, total is %v", sum, b.Total)
	}
}
