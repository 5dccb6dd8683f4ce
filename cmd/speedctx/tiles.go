// The tiles subcommand runs the geo-tiled aggregate query layer
// (DESIGN.md §13) from the command line:
//
//	speedctx tiles [-city A] [-scale 0.02] [-seed 2021] [-par 0]
//	               [-zoom 16] [-bbox minLat,minLon,maxLat,maxLon]
//	               [-metric download|upload|latency|tests|devices]
//	               [-format json|csv] [-snapshot-dir DIR]
//	               [-stream [-cluster-zoom 16]]
//
// Without -snapshot-dir the city is generated in memory and aggregated;
// with it, rows come from the city's .sxc snapshot through a pruned column
// scan (five of sixteen Ookla columns decoded, everything else skipped by
// seek). Both paths produce byte-identical output; the identity matrix is
// gated by experiments.TestTileRowsSnapshotIdentity (memory vs snapshot ×
// parallelism × cold/warm cache) and experiments.TestStreamTileIndexIdentity
// (the streamed fold at every scan batch and parallelism).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/experiments"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

func runTiles(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tiles", flag.ContinueOnError)
	city := fs.String("city", "A", "city identifier (A-D)")
	scale := fs.Float64("scale", 0.02, "fraction of the paper's dataset sizes")
	seed := fs.Int64("seed", 2021, "generation seed")
	par := fs.Int("par", 0, "aggregation parallelism: 0 = all CPUs, 1 = serial (output is identical at every setting)")
	zoom := fs.Int("zoom", opendata.TileZoom, "output zoom level (1..16)")
	bbox := fs.String("bbox", "", "restrict output to minLat,minLon,maxLat,maxLon")
	metric := fs.String("metric", "", "single-metric projection: download|upload|latency|tests|devices (JSON only)")
	format := fs.String("format", "json", "output format: json or csv")
	snapDir := fs.String("snapshot-dir", "", "read rows from this .sxc snapshot directory via a pruned column scan (writing the snapshot on a miss) instead of keeping the city in memory")
	stream := fs.Bool("stream", false, "with -snapshot-dir: fold the snapshot through the streaming block scanner in bounded batches instead of materializing the city columns (byte-identical output; DESIGN.md §14)")
	scanBatch := fs.Int("scan-batch", 0, "rows per streamed scan batch for -stream (0 = default)")
	clusterZoom := fs.Int("cluster-zoom", 0, "with -stream: write (or reuse) a quadkey-clustered zoned sibling of the snapshot at this zoom and push the -bbox predicate into its scan, skipping row groups outside the box (byte-identical output; DESIGN.md §15); 0 disables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *zoom < 1 || *zoom > opendata.TileZoom {
		return fmt.Errorf("tiles: -zoom must be in [1, %d]", opendata.TileZoom)
	}
	if *stream && *snapDir == "" {
		return fmt.Errorf("tiles: -stream needs -snapshot-dir (streaming scans a .sxc file)")
	}
	if *clusterZoom != 0 && !*stream {
		return fmt.Errorf("tiles: -cluster-zoom needs -stream (pushdown seeks through a streamed scan)")
	}
	if *clusterZoom < 0 || *clusterZoom > opendata.MaxZoom {
		return fmt.Errorf("tiles: -cluster-zoom must be in [1, %d] (or 0 to disable)", opendata.MaxZoom)
	}

	q := tilequery.Query{Zoom: *zoom}
	if *bbox != "" {
		rng, err := parseBBox(*bbox, *zoom)
		if err != nil {
			return err
		}
		q.Range = &rng
	}

	fitCfg := core.Config{Parallelism: *par, FastFit: true}
	var tiles []opendata.ContextTile
	if *stream {
		path, err := ensureSnapshot(*snapDir, *city, *scale, *seed, fitCfg)
		if err != nil {
			return err
		}
		tqcfg := tilequery.Config{City: *city, Parallelism: *par}
		var ix *tilequery.Index
		var ctr dataset.DecodeCounters
		if *clusterZoom > 0 {
			// Fit still streams the original (order-dependent) file; the fold
			// streams the clustered zoned sibling with the bbox pushed down.
			zpath, err := experiments.ClusterSnapshot(path, *clusterZoom, 0, 0)
			if err != nil {
				return err
			}
			ix, ctr, err = experiments.StreamTileIndexPushdown(path, zpath, *city, fitCfg, *scanBatch, tqcfg, q.Range)
			if err != nil {
				return err
			}
			if ctr.BlocksScanned+ctr.BlocksSkipped == 0 {
				return fmt.Errorf("tiles: clustered scan bound no zone-mapped groups (%+v)", ctr)
			}
		} else {
			var err error
			ix, ctr, err = experiments.StreamTileIndex(path, *city, fitCfg, *scanBatch, tqcfg)
			if err != nil {
				return err
			}
		}
		if ctr.ColumnsSkipped == 0 || ctr.SectionsSkipped == 0 {
			return fmt.Errorf("tiles: streamed snapshot scan skipped nothing (%+v)", ctr)
		}
		if tiles, err = ix.Tiles(q); err != nil {
			return err
		}
	} else {
		var rows *tilequery.Rows
		var err error
		if *snapDir != "" {
			rows, err = snapshotTileRows(*snapDir, *city, *scale, *seed, fitCfg)
		} else {
			s := experiments.NewSuite(*scale, *seed)
			s.Parallelism = *par
			s.FastFit = true
			rows, err = s.TileRows(*city)
		}
		if err != nil {
			return err
		}
		if tiles, err = tilequery.Aggregate(rows, tilequery.Config{City: *city, Parallelism: *par}, q); err != nil {
			return err
		}
	}
	switch *format {
	case "csv":
		return tilequery.WriteTilesCSV(out, tiles)
	case "json":
		buf, err := tilequery.AppendTilesJSON(nil, *zoom, tiles, *metric)
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		_, err = out.Write(buf)
		return err
	}
	return fmt.Errorf("tiles: unknown format %q", *format)
}

// ensureSnapshot returns the path of the city's snapshot in dir,
// generating and writing it first if the store misses.
func ensureSnapshot(dir, city string, scale float64, seed int64, fitCfg core.Config) (string, error) {
	store := &dataset.SnapshotStore{Dir: dir}
	key := dataset.SnapshotKey{City: city, Seed: seed, Scale: scale}
	path := store.Path(key)
	if _, err := os.Stat(path); err != nil {
		// Miss: let the suite generate the city and write the snapshot.
		s := experiments.NewSuite(scale, seed)
		s.Parallelism = fitCfg.Parallelism
		s.FastFit = true
		s.SnapshotDir = dir
		if _, err := s.City(city); err != nil {
			return "", err
		}
	}
	return path, nil
}

// snapshotTileRows reads the tile row view from the city's snapshot via
// ensureSnapshot, and insists the pruned scan skipped columns.
func snapshotTileRows(dir, city string, scale float64, seed int64, fitCfg core.Config) (*tilequery.Rows, error) {
	path, err := ensureSnapshot(dir, city, scale, seed, fitCfg)
	if err != nil {
		return nil, err
	}
	rows, ctr, err := experiments.TileRowsFromSnapshot(path, city, fitCfg)
	if err != nil {
		return nil, err
	}
	if ctr.ColumnsSkipped == 0 || ctr.SectionsSkipped == 0 {
		return nil, fmt.Errorf("tiles: pruned snapshot scan skipped nothing (%+v)", ctr)
	}
	return rows, nil
}

func parseBBox(s string, zoom int) (opendata.TileRange, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return opendata.TileRange{}, fmt.Errorf("tiles: -bbox wants minLat,minLon,maxLat,maxLon")
	}
	var f [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return opendata.TileRange{}, fmt.Errorf("tiles: bad bbox coordinate %q", p)
		}
		f[i] = v
	}
	return opendata.TileRangeForBBox(f[0], f[1], f[2], f[3], zoom)
}
