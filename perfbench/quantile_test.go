package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if n := MinSamples(0.99); n != 1000 {
		t.Fatalf("MinSamples(0.99) = %d, want 1000", n)
	}
	if n := MinSamples(0.95); n != 200 {
		t.Fatalf("MinSamples(0.95) = %d, want 200", n)
	}
	if _, ok := Percentile(seq(999), 0.99); ok {
		t.Fatal("p99 of 999 samples reported: only 9 lie beyond it")
	}
	v, ok := Percentile(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v (ok %v), want 990", v, ok)
	}
	if _, ok := Percentile(seq(19), 0.5); ok {
		t.Fatal("median of 19 samples reported as a percentile")
	}
	if _, ok := Percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
