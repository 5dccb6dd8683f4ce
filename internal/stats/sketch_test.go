package stats

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"speedctx/internal/fitcache"
	"speedctx/internal/identitytest"
)

// shardSketches deposits xs round-robin into `shards` sketches over one
// shared grid.
func shardSketches(t *testing.T, xs []float64, lo, hi float64, bins, shards int) []*Sketch {
	t.Helper()
	out := make([]*Sketch, shards)
	for i := range out {
		s, err := NewSketch(lo, hi, bins)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	for i, x := range xs {
		out[i%shards].Observe(x)
	}
	return out
}

func sampleBounds(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// TestSketchMassConservation pins the fixed-point invariant: every Observe
// deposits exactly massUnit across its two bracketing bins, so the total
// mass is count·2^32 regardless of where samples land (clamped tails
// included).
func TestSketchMassConservation(t *testing.T) {
	xs := speedMixtures["contaminated"].Sample(NewRNG(11), 20000)
	s, err := SketchFromSamples(xs, 2, 35, 512) // grid narrower than the data: forces clamping
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, m := range s.MassView() {
		sum += m
	}
	if want := uint64(len(xs)) * massUnit; sum != want {
		t.Fatalf("total mass = %d, want %d", sum, want)
	}
	if s.Count() != len(xs) || s.Weight() != float64(len(xs)) {
		t.Fatalf("count = %d weight = %v, want %d", s.Count(), s.Weight(), len(xs))
	}
}

// TestSketchMergeDeterminism is the core property test: for every shard
// count and merge order, the merged sketch's masses are bit-identical to
// the single-pass sketch over the same samples.
func TestSketchMergeDeterminism(t *testing.T) {
	xs := speedMixtures["downloads"].Sample(NewRNG(23), 30000)
	lo, hi := sampleBounds(xs)
	const bins = 2048
	want, err := SketchFromSamples(xs, lo, hi, bins)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range identitytest.ShardCounts {
		parts := shardSketches(t, xs, lo, hi, bins, shards)
		for oi, order := range identitytest.MergeOrders(shards) {
			merged, err := NewSketch(lo, hi, bins)
			if err != nil {
				t.Fatal(err)
			}
			for _, pi := range order {
				if err := merged.Merge(parts[pi]); err != nil {
					t.Fatal(err)
				}
			}
			if merged.Count() != want.Count() {
				t.Fatalf("shards=%d order=%d: count %d != %d", shards, oi, merged.Count(), want.Count())
			}
			if !reflect.DeepEqual(merged.MassView(), want.MassView()) {
				t.Fatalf("shards=%d order=%d: merged masses differ from single-pass", shards, oi)
			}
		}
	}
}

// TestFitGMMSketchMatchesSinglePass pins the tentpole bit-identity
// contract at the stats layer: FitGMM's -fast path over the raw samples
// and FitGMMSketch over a sharded-and-merged sketch of the same samples on
// the same grid return byte-identical components, at every shard count and
// merge order.
func TestFitGMMSketchMatchesSinglePass(t *testing.T) {
	xs := speedMixtures["downloads"].Sample(NewRNG(41), 50000)
	cfg := GMMConfig{FastFit: true, Parallelism: 1}
	const k = 4
	want, err := FitGMM(xs, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sampleBounds(xs)
	bins := cfg.emBins()
	for _, shards := range identitytest.ShardCounts {
		parts := shardSketches(t, xs, lo, hi, bins, shards)
		for oi, order := range identitytest.MergeOrders(shards) {
			merged, err := NewSketch(lo, hi, bins)
			if err != nil {
				t.Fatal(err)
			}
			for _, pi := range order {
				if err := merged.Merge(parts[pi]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := FitGMMSketch(merged, k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d order=%d: sketch fit differs from single-pass -fast fit", shards, oi)
			}
		}
	}
}

// TestFitGMMInitSketchMatchesSinglePass is the same contract for the
// seeded-init path the BST stages actually call.
func TestFitGMMInitSketchMatchesSinglePass(t *testing.T) {
	xs := speedMixtures["downloads"].Sample(NewRNG(57), 50000)
	cfg := GMMConfig{FastFit: true}
	init := []float64{30, 95, 210, 480}
	want, err := FitGMMInit(xs, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sampleBounds(xs)
	parts := shardSketches(t, xs, lo, hi, cfg.emBins(), 7)
	merged := parts[3].Clone()
	for _, pi := range []int{6, 0, 5, 1, 4, 2} {
		if err := merged.Merge(parts[pi]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := FitGMMInitSketch(merged, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("seeded sketch fit differs from single-pass -fast fit")
	}
}

// TestSketchFitSharedCache checks the cache key is sketch-content based:
// a single-pass fast fit and a merged-sketch fit of the same rows share one
// cache entry.
func TestSketchFitSharedCache(t *testing.T) {
	xs := speedMixtures["uploads"].Sample(NewRNG(8), 20000)
	cache := fitcache.New(8)
	cfg := GMMConfig{FastFit: true, Cache: cache}
	if _, err := FitGMM(xs, 2, cfg); err != nil {
		t.Fatal(err)
	}
	lo, hi := sampleBounds(xs)
	parts := shardSketches(t, xs, lo, hi, cfg.emBins(), 7)
	merged := parts[0].Clone()
	for _, p := range parts[1:] {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	before := cache.Snapshot().Hits
	if _, err := FitGMMSketch(merged, 2, cfg); err != nil {
		t.Fatal(err)
	}
	if cache.Snapshot().Hits != before+1 {
		t.Fatal("merged-sketch fit missed the cache entry the single-pass fit created")
	}
}

// TestSketchErrors pins the failure modes callers depend on to detect
// staleness: a foreign serialized version and a grid mismatch.
func TestSketchErrors(t *testing.T) {
	if _, err := SketchFromParts(0, 10, make([]uint64, 8), 0, SketchVersion+1); !errors.Is(err, ErrSketchVersion) {
		t.Fatalf("foreign version error = %v, want ErrSketchVersion", err)
	}
	a, err := NewSketch(0, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSketch(0, 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); !errors.Is(err, ErrSketchGrid) {
		t.Fatalf("grid mismatch error = %v, want ErrSketchGrid", err)
	}
	mass := make([]uint64, 8)
	mass[0] = massUnit
	if _, err := SketchFromParts(0, 10, mass, 2, SketchVersion); err == nil {
		t.Fatal("mass/count mismatch accepted")
	}
}

// TestSketchMoments sanity-checks the derived moments against the raw
// sample within binning tolerance.
func TestSketchMoments(t *testing.T) {
	xs := speedMixtures["uploads"].Sample(NewRNG(19), 40000)
	lo, hi := sampleBounds(xs)
	s, err := SketchFromSamples(xs, lo, hi, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Mean(), Mean(xs); math.Abs(got-want) > 0.05 {
		t.Fatalf("sketch mean %v vs raw %v", got, want)
	}
	if got, want := s.StdDev(), StdDev(xs); math.Abs(got-want) > 0.1 {
		t.Fatalf("sketch stddev %v vs raw %v", got, want)
	}
	if got, want := s.Quantile(0.5), Quantile(xs, 0.5); math.Abs(got-want) > 0.5 {
		t.Fatalf("sketch median %v vs raw %v", got, want)
	}
}
