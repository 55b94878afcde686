package kernel

import (
	"math"
	"testing"
)

func TestSuccessProb(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		m    int
		p    float64
		want float64
	}{
		{name: "no stations", m: 0, p: 0.5, want: 0},
		{name: "negative m", m: -3, p: 0.5, want: 0},
		{name: "zero prob", m: 10, p: 0, want: 0},
		{name: "single station", m: 1, p: 0.25, want: 0.25},
		{name: "single station certain", m: 1, p: 1, want: 1},
		{name: "two stations p=1 collide", m: 2, p: 1, want: 0},
		{name: "two stations", m: 2, p: 0.5, want: 0.5}, // 2·(1/2)·(1/2)
		{name: "optimal p=1/m", m: 4, p: 0.25, want: 4 * 0.25 * 0.75 * 0.75 * 0.75},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := SuccessProb(tt.m, tt.p); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("SuccessProb(%d, %v) = %v, want %v", tt.m, tt.p, got, tt.want)
			}
		})
	}
}

func TestSuccessProbLargeM(t *testing.T) {
	t.Parallel()
	// m·p = 1 with huge m: P₁ → e^{-1}.
	const m = 10_000_000
	got := SuccessProb(m, 1.0/m)
	want := math.Exp(-1)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("SuccessProb(1e7, 1e-7) = %v, want ~1/e = %v", got, want)
	}
}
