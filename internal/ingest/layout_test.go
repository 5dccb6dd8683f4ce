package ingest

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/identitytest"
	"speedctx/internal/opendata"
	"speedctx/internal/plans"
	"speedctx/internal/tilequery"
)

// sealSplit seals rows round-robin into split segment files under dir with
// the pipeline's own seal encoding.
func sealSplit(t *testing.T, dir string, rows []dataset.IngestRow, split int, specs map[string]CitySketchSpec) []string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	chunks := make([][]dataset.IngestRow, split)
	for i, row := range rows {
		chunks[i%split] = append(chunks[i%split], row)
	}
	paths := make([]string, split)
	for si, chunk := range chunks {
		buf, _, err := encodeSegment(chunk, specs)
		if err != nil {
			t.Fatal(err)
		}
		paths[si] = filepath.Join(dir, fmt.Sprintf("seg-%08d%s", si, segmentSuffix))
		if err := writeAtomic(paths[si], buf); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// foldFiles streams each file into ix through a block scan of sel and
// returns the last file's scan counters.
func foldFiles(t *testing.T, ix *tilequery.Index, paths []string, sel dataset.SnapshotSelection, batch int) (ctr dataset.DecodeCounters) {
	t.Helper()
	for _, path := range paths {
		src, err := dataset.OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := dataset.NewBlockScanner(src, sel, batch)
		if err != nil {
			src.Close()
			t.Fatal(err)
		}
		_, err = ix.AddScan(sc)
		ctr = sc.Counters()
		src.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return ctr
}

// TestSegmentLayoutIdentity is the streaming block-scan and zone-map
// identity gate (DESIGN.md §14, §15). One four-city row set is sealed into
// {1,3}-segment layouts with the pipeline's seal encoding, and every
// streamed consumer must equal its materialized reference at every scan
// batch and fold parallelism:
//
//   - tiles: streamed segment folds render the in-memory fold's bytes;
//   - sketches: per-city streamed deposits merge to the AddSample pass;
//   - compaction: every split and scan knob compacts to the same bytes,
//     which fold back to the in-memory tiles;
//   - zonemap: a one-city bbox over a clustered v3 and a canonical v2
//     compaction, pushdown on and off, renders the in-memory fold, and
//     only clustered+pushdown skips row groups.
func TestSegmentLayoutIdentity(t *testing.T) {
	// Rows span cities A-D; only A and B carry sketches, as in a pipeline
	// configured for a subset of the cities it ingests.
	cities := []string{"A", "B"}
	specs := make(map[string]CitySketchSpec, len(cities))
	for _, city := range cities {
		cat, _ := plans.ByCity(city)
		specs[city] = CitySketchSpec{Spec: core.SketchSpecFor(cat, 0), Tiers: len(cat.UploadTiers())}
	}
	all := testRows(6000, 5)
	root := t.TempDir()
	splits := []int{1, 3}
	layouts := make(map[int][]string, len(splits))
	for _, split := range splits {
		layouts[split] = sealSplit(t, filepath.Join(root, fmt.Sprintf("split-%d", split)), all, split, specs)
	}
	zooms := []tilequery.Query{{Zoom: opendata.TileZoom}, {Zoom: 12}}
	wantTiles := renderIndex(t, memoryIndex(t, all), zooms...)

	t.Run("tiles", func(t *testing.T) {
		for _, split := range splits {
			for _, batch := range identitytest.ScanBatches {
				for _, par := range identitytest.FoldPars {
					ix := tilequery.NewIndex(tilequery.Config{Parallelism: par})
					foldFiles(t, ix, layouts[split], tileSelection, batch)
					if got := renderIndex(t, ix, zooms...); !bytes.Equal(got, wantTiles) {
						t.Fatalf("split=%d batch=%d par=%d: streamed fold differs from the in-memory fold", split, batch, par)
					}
				}
			}
		}
	})

	t.Run("sketches", func(t *testing.T) {
		// Reference: one AddSample pass per city over the whole row set.
		_, refs, err := encodeSegment(append([]dataset.IngestRow(nil), all...), specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range splits {
			for _, batch := range identitytest.ScanBatches {
				for _, city := range cities {
					merged, err := core.NewTierSketches(specs[city].Spec, specs[city].Tiers)
					if err != nil {
						t.Fatal(err)
					}
					for _, path := range layouts[split] {
						seg, err := rebinCitySamples(path, city, specs[city], batch)
						if err != nil {
							t.Fatalf("%s: %v", path, err)
						}
						if err := merged.Merge(seg); err != nil {
							t.Fatal(err)
						}
					}
					if !reflect.DeepEqual(merged, refs[city]) {
						t.Fatalf("split=%d batch=%d city=%s: streamed deposit differs from the AddSample pass", split, batch, city)
					}
				}
			}
		}
	})

	t.Run("compaction", func(t *testing.T) {
		var want []byte
		for _, split := range splits {
			for _, knob := range []CompactOptions{{Par: 1, BatchRows: 1}, {Par: 4, BatchRows: 4096}, {}} {
				dir := filepath.Join(root, fmt.Sprintf("compact-%d-%d-%d", split, knob.Par, knob.BatchRows))
				sealSplit(t, dir, all, split, specs)
				path, err := CompactWith(dir, knob)
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if want != nil {
					if !bytes.Equal(got, want) {
						t.Fatalf("split=%d par=%d batch=%d: compacted bytes differ", split, knob.Par, knob.BatchRows)
					}
					continue
				}
				want = got
				ix := tilequery.NewIndex(tilequery.Config{Parallelism: 1})
				foldFiles(t, ix, []string{path}, tileSelection, 4096)
				if !bytes.Equal(renderIndex(t, ix, zooms...), wantTiles) {
					t.Fatalf("tiles folded from %s differ from the in-memory fold", CompactedName)
				}
			}
		}
	})

	t.Run("zonemap", func(t *testing.T) {
		// One compaction of the same segments per layout: quadkey-clustered
		// zoned v3 and canonical-order v2.
		paths := map[bool]string{}
		for _, clustered := range []bool{true, false} {
			dir := filepath.Join(root, fmt.Sprintf("clustered-%v", clustered))
			sealSplit(t, dir, all, 3, specs)
			var opts CompactOptions
			if clustered {
				opts = CompactOptions{ClusterZoom: opendata.TileZoom, ZoneBlockRows: 512}
			}
			var err error
			if paths[clustered], err = CompactWith(dir, opts); err != nil {
				t.Fatal(err)
			}
		}
		// One-neighbourhood bbox around city A: the clustered file's zone
		// maps must prove city B's (and most of A's) row groups irrelevant.
		c := opendata.CityCenter(cities[0])
		rng, err := opendata.TileRangeForBBox(c.Lat-0.11, c.Lon-0.11, c.Lat+0.11, c.Lon+0.11, opendata.TileZoom)
		if err != nil {
			t.Fatal(err)
		}
		q := tilequery.Query{Zoom: opendata.TileZoom, Range: &rng}
		want := renderIndex(t, memoryIndex(t, all), q)
		for _, clustered := range []bool{true, false} {
			for _, push := range []bool{false, true} {
				var skips, scans int
				for _, batch := range identitytest.ScanBatches {
					for _, par := range identitytest.FoldPars {
						cfg := tilequery.Config{Parallelism: par}
						sel := tileSelection
						if push {
							sel.Predicate = cfg.Pushdown(q.Range)
						}
						ix := tilequery.NewIndex(cfg)
						ctr := foldFiles(t, ix, []string{paths[clustered]}, sel, batch)
						if got := renderIndex(t, ix, q); !bytes.Equal(got, want) {
							t.Fatalf("clustered=%v push=%v batch=%d par=%d: bbox tiles differ from the in-memory fold", clustered, push, batch, par)
						}
						skips += ctr.BlocksSkipped
						scans += ctr.BlocksScanned
					}
				}
				switch {
				case clustered && push && skips == 0:
					t.Fatalf("clustered pushdown skipped no row groups (scanned %d)", scans)
				case !(clustered && push) && skips > 0:
					t.Fatalf("clustered=%v push=%v skipped %d row groups, want 0", clustered, push, skips)
				case clustered && scans == 0:
					t.Fatalf("clustered push=%v scan bound no zone-mapped groups", push)
				}
			}
		}
	})
}

// TestEncodeSegmentOrderIndependent pins the seal half of the determinism
// contract: a sealed segment's bytes and sketches are a function of the
// row multiset alone, whatever order the rows arrived in.
func TestEncodeSegmentOrderIndependent(t *testing.T) {
	cat, _ := plans.ByCity("A")
	specs := map[string]CitySketchSpec{"A": {Spec: core.SketchSpecFor(cat, 0), Tiers: len(cat.UploadTiers())}}
	rows := testRows(3000, 7)
	wantBuf, wantSk, err := encodeSegment(append([]dataset.IngestRow(nil), rows...), specs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for perm := 0; perm < 4; perm++ {
		shuffled := append([]dataset.IngestRow(nil), rows...)
		if perm == 0 {
			slices.Reverse(shuffled)
		} else {
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		}
		buf, sk, err := encodeSegment(shuffled, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, wantBuf) {
			t.Fatalf("permutation %d: segment bytes differ", perm)
		}
		if !reflect.DeepEqual(sk, wantSk) {
			t.Fatalf("permutation %d: sketches differ", perm)
		}
	}
}
