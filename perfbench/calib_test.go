package main

import "testing"

// The reference kernel does the same work every time: two kernels over
// the same data, started at the same place, return the same value unit
// after unit.
func TestKernelDeterministic(t *testing.T) {
	big := newBigData()
	a, b := newKernel(big, 0), newKernel(big, 0)
	for i := 0; i < 3; i++ {
		if x, y := a.unit(), b.unit(); x != y {
			t.Fatalf("unit %d: %x != %x", i, x, y)
		}
	}
}

// A time measured between two samples is scaled by the mean of the two.
func TestCalibratorScale(t *testing.T) {
	c := &calibrator{cpuNs: []float64{refKernelNs, 3 * refKernelNs, 2 * refKernelNs}}
	if got := c.scale(0, 1); got != 0.5 {
		t.Fatalf("scale(0, 1) = %v, want 0.5", got)
	}
	if got := c.scale(2, 2); got != 0.5 {
		t.Fatalf("scale(2, 2) = %v, want 0.5", got)
	}
	c = newCalibrator()
	i, j := c.sample(), c.sample()
	if i != 0 || j != 1 || c.cpuNs[0] <= 0 || c.cpuNs[1] <= 0 {
		t.Fatalf("samples %d, %d: %v", i, j, c.cpuNs)
	}
	t.Logf("kernel: %.0f, %.0f CPU ns/unit", c.cpuNs[0], c.cpuNs[1])
}
