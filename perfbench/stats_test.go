package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4)
// for the same samples, including its extrapolation below four points.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 9, 2, 8}, 1.5, 8.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.5, 0.45, 0.8, 0.11}, 0.17750000000000002, 0.7249999999999999},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.5, 0.45, 0.8, 0.11}, 0.425},
	}
	for _, c := range cases {
		if got := median(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestSpread(t *testing.T) {
	// Quartiles 2.75 and 8.25 around a median of 5.5: a spread of 1.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"traces_per_s", "sca.corr_ms", "fig3-10k", "go.gc_cpu_share", "0x", "a"} {
		if err := validName(ok); err != nil {
			t.Errorf("validName(%q) = %v, want nil", ok, err)
		}
	}
	long := ""
	for i := 0; i < 65; i++ {
		long += "a"
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", "x:y", long} {
		if validName(bad) == nil {
			t.Errorf("validName(%q) = nil, want an error", bad)
		}
	}
	for _, l := range layerMetric {
		if err := validName(l); err != nil {
			t.Errorf("layer metric: %v", err)
		}
	}
}
