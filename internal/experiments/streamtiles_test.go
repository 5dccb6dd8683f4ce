package experiments

import (
	"bytes"
	"testing"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/identitytest"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

// TestStreamTileIndexIdentity: the two-pass streamed scan→classify→fold
// renders byte-identical tiles to the materialized
// TileRowsFromSnapshot + Aggregate path, at every batch size and fold
// parallelism.
func TestStreamTileIndexIdentity(t *testing.T) {
	dir := t.TempDir()
	s := NewSuite(0.002, 2021)
	s.Parallelism = 1
	s.FastFit = true
	s.SnapshotDir = dir
	const city = "A"
	if _, err := s.City(city); err != nil {
		t.Fatal(err)
	}
	path := (&dataset.SnapshotStore{Dir: dir}).Path(dataset.SnapshotKey{City: city, Seed: 2021, Scale: 0.002})
	cfg := core.Config{Parallelism: 1, FastFit: true}

	rows, wantCtr, err := TileRowsFromSnapshot(path, city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	render := func(ix *tilequery.Index) []byte {
		var out []byte
		for _, zoom := range []int{opendata.TileZoom, 12} {
			tiles, err := ix.Tiles(tilequery.Query{Zoom: zoom})
			if err != nil {
				t.Fatal(err)
			}
			if out, err = tilequery.AppendTilesJSON(out, zoom, tiles, ""); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	ref := tilequery.NewIndex(tilequery.Config{City: city, Parallelism: 1})
	if _, err := ref.AddRows(rows); err != nil {
		t.Fatal(err)
	}
	want := render(ref)

	for _, batch := range identitytest.ScanBatches {
		for _, par := range identitytest.FoldPars {
			ix, ctr, err := StreamTileIndex(path, city, cfg, batch,
				tilequery.Config{City: city, Parallelism: par})
			if err != nil {
				t.Fatalf("batch %d par %d: %v", batch, par, err)
			}
			if got := render(ix); !bytes.Equal(got, want) {
				t.Fatalf("batch %d par %d: streamed tiles differ from materialized path", batch, par)
			}
			if ctr != wantCtr {
				t.Fatalf("batch %d: counters %+v, want the pruned decode's %+v", batch, ctr, wantCtr)
			}
		}
	}
}
