package main

import (
	"math"
	"testing"
)

func TestSpeedScaleIsGeometricMeanOverParts(t *testing.T) {
	s := &speed{slices: map[string]*[3][]float64{
		"p": {
			{0.003, 0.001, 0.002},        // median 0.002, mean 0.002
			{0.008, 0.010, 0.009},        // median 0.009, mean 0.009
			{0.001, 0.005, 0.001, 0.001}, // median 0.001, mean 0.002
		},
	}}
	for _, c := range []struct {
		name string
		avg  func([]float64) float64
		want float64
	}{
		{"median", median, math.Cbrt(0.002 * 0.009 * 0.001)},
		{"mean", mean, math.Cbrt(0.002 * 0.009 * 0.002)},
	} {
		if got := s.ref("p", c.avg); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("ref by %s = %v, want %v", c.name, got, c.want)
		}
		// A slower host (larger reference time) scales timings down.
		if got, want := s.scale("p", c.avg), refNominal.Seconds()/c.want; math.Abs(got-want) > 1e-9 {
			t.Fatalf("scale by %s = %v, want %v", c.name, got, want)
		}
	}
	slow := &speed{slices: map[string]*[3][]float64{"p": {{0.004}, {0.018}, {0.002}}}}
	if r := slow.scale("p", median) / s.scale("p", median); math.Abs(r-0.5) > 1e-9 {
		t.Fatalf("doubling every part scaled by %v, want 0.5", r)
	}
}

func TestNilSpeedTakesNoSlices(t *testing.T) {
	var s *speed
	s.sample("traffic", 3) // must not panic
}

func TestRefKernel(t *testing.T) {
	k, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	c, m, rt, err := k.slice()
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 || m <= 0 || rt <= 0 {
		t.Fatalf("slice parts %v %v %v, want all positive", c, m, rt)
	}
	// The core and memory parts work outside the Go heap.
	if n := testing.AllocsPerRun(2, func() { k.core(); k.memory() }); n != 0 {
		t.Fatalf("core+memory allocated %v times per run, want 0", n)
	}
}
