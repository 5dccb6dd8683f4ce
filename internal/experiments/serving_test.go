package experiments

import (
	"reflect"
	"testing"

	"speedctx/internal/core"
	"speedctx/internal/identitytest"
)

// batchedSamples feeds samples under their fitted upload tiers to
// core.SketchesFromScan in fixed-size batches, reusing its batch buffers
// between Scan calls like the block scanner does.
type batchedSamples struct {
	samples []core.Sample
	res     *core.Result
	batch   int
	at      int
	out     core.TierSampleBatch
}

func (s *batchedSamples) Scan() bool {
	if s.at >= len(s.samples) {
		return false
	}
	s.out.UploadTier, s.out.Download, s.out.Upload = s.out.UploadTier[:0], s.out.Download[:0], s.out.Upload[:0]
	for end := min(s.at+s.batch, len(s.samples)); s.at < end; s.at++ {
		s.out.UploadTier = append(s.out.UploadTier, s.res.Assignments[s.at].UploadTier)
		s.out.Download = append(s.out.Download, s.samples[s.at].Download)
		s.out.Upload = append(s.out.Upload, s.samples[s.at].Upload)
	}
	return true
}

func (s *batchedSamples) TierSamples() core.TierSampleBatch { return s.out }
func (s *batchedSamples) Err() error                        { return nil }

// TestServingSketchRefitIdentity is the serving refit's determinism gate
// (DESIGN.md §12, §14): the BST refit from a city's serving sketches is
// byte-identical to the single-sketch fit however the deposits were
// sharded and merged, and however a streamed deposit was batched — the
// property the ingest refresh loop's correctness rests on.
func TestServingSketchRefitIdentity(t *testing.T) {
	s := NewSuite(0.02, 2021)
	s.FastFit = true
	const city = "A"
	_, base, spec, err := s.CityServingModel(city)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.City(city)
	if err != nil {
		t.Fatal(err)
	}
	a, err := b.OoklaAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	samples := b.OoklaSampleView()
	// Below the fast-fit threshold the fit takes the exact path and the
	// comparison would not exercise the sketch fit the refresh loop runs.
	if len(samples) < 4096 {
		t.Fatalf("only %d uploads; the single-pass fast path needs >= 4096", len(samples))
	}
	cfg := s.BSTConfig()
	want, err := core.FitFromSketches(base, b.Catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiers := len(base.Downloads)

	for _, shards := range identitytest.ShardCounts {
		parts := make([]*core.TierSketches, shards)
		for i := range parts {
			if parts[i], err = core.NewTierSketches(spec, tiers); err != nil {
				t.Fatal(err)
			}
		}
		for i, sm := range samples {
			parts[i%shards].AddSample(a.Result.Assignments[i].UploadTier, sm.Download, sm.Upload)
		}
		for oi, order := range identitytest.MergeOrders(shards) {
			merged, err := core.NewTierSketches(spec, tiers)
			if err != nil {
				t.Fatal(err)
			}
			for _, pi := range order {
				if err := merged.Merge(parts[pi]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := core.FitFromSketches(merged, b.Catalog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d order=%d: merged fit differs from the single-sketch fit", shards, oi)
			}
		}
	}

	// Streamed deposits. The fit above materialized float views inside
	// base, so compare against a fresh, untouched deposit.
	single, err := core.SketchesFromResult(a.Result, samples, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 513, 4096, len(samples) + 1} {
		got, err := core.SketchesFromScan(spec, tiers,
			&batchedSamples{samples: samples, res: a.Result, batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, single) {
			t.Fatalf("batch %d: streamed deposit differs from the single-pass sketches", batch)
		}
		fit, err := core.FitFromSketches(got, b.Catalog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fit, want) {
			t.Fatalf("batch %d: streamed-deposit fit differs from the single-pass fit", batch)
		}
	}
}
