package experiments

import (
	"bytes"
	"testing"

	"speedctx/internal/dataset"
	"speedctx/internal/identitytest"
	"speedctx/internal/tilequery"
)

// TestTileRowsSnapshotIdentity: for every seeded fixture city
// (SPEEDCTX_TEST_CITIES narrows the sweep), the tile aggregates rendered
// from the in-memory city equal, byte for byte, the aggregates rendered
// from the city's .sxc snapshot through the pruned five-column scan — and
// the scan really skipped the other columns and sections. The same bytes
// come out of a tilequery.Engine over either row set at every fold
// parallelism, cold and again through its warm result cache.
func TestTileRowsSnapshotIdentity(t *testing.T) {
	dir := t.TempDir()
	s := NewSuite(0.002, 2021)
	s.Parallelism = 1
	s.FastFit = true
	s.SnapshotDir = dir
	store := &dataset.SnapshotStore{Dir: dir}
	for _, city := range FixtureCities("A", "B") {
		t.Run("city="+city, func(t *testing.T) {
			memRows, err := s.TileRows(city)
			if err != nil {
				t.Fatal(err)
			}
			// Building the bundle above wrote the snapshot through the
			// suite's store; re-read it via the pruned scan.
			path := store.Path(dataset.SnapshotKey{City: city, Seed: s.Seed, Scale: s.Scale})
			snapRows, ctr, err := TileRowsFromSnapshot(path, city, s.BSTConfig())
			if err != nil {
				t.Fatal(err)
			}
			if ctr.ColumnsSkipped == 0 || ctr.SectionsSkipped == 0 || ctr.BytesSkipped == 0 {
				t.Fatalf("pruned scan skipped nothing: %+v", ctr)
			}
			cfg := tilequery.Config{City: city}
			for _, zoom := range []int{0, 12} {
				mem, err := tilequery.Aggregate(memRows, cfg, tilequery.Query{Zoom: zoom})
				if err != nil {
					t.Fatal(err)
				}
				snap, err := tilequery.Aggregate(snapRows, cfg, tilequery.Query{Zoom: zoom})
				if err != nil {
					t.Fatal(err)
				}
				outZoom := zoom
				if outZoom == 0 {
					outZoom = 16
				}
				mb, err := tilequery.AppendTilesJSON(nil, outZoom, mem, "")
				if err != nil {
					t.Fatal(err)
				}
				sb, err := tilequery.AppendTilesJSON(nil, outZoom, snap, "")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mb, sb) {
					t.Fatalf("zoom %d: snapshot tiles differ from in-memory tiles (%d vs %d bytes)", zoom, len(sb), len(mb))
				}
				for _, par := range identitytest.FoldPars {
					for src, rows := range map[string]*tilequery.Rows{"memory": memRows, "snapshot": snapRows} {
						eng := tilequery.NewEngine(tilequery.Config{City: city, Parallelism: par}, 0)
						if err := eng.AddRows(rows); err != nil {
							t.Fatal(err)
						}
						for _, pass := range []string{"cold", "warm"} {
							tiles, err := eng.Tiles(tilequery.Query{Zoom: zoom})
							if err != nil {
								t.Fatal(err)
							}
							got, err := tilequery.AppendTilesJSON(nil, outZoom, tiles, "")
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(got, mb) {
								t.Fatalf("zoom %d: %s engine par=%d %s tiles differ from the in-memory aggregate", zoom, src, par, pass)
							}
						}
						if st := eng.Stats(); st.CacheHits == 0 {
							t.Fatalf("zoom %d: %s engine par=%d: warm pass hit no cache entries (%+v)", zoom, src, par, st)
						}
					}
				}
			}
		})
	}
}
