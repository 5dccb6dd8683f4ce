package ingest

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

// tileSelection is the pruned projection the tile layer reads from a
// sealed segment: six of the eleven ingest columns, no sketch sections.
// Everything else in the file is skipped by seek (DESIGN.md §13).
var tileSelection = dataset.SnapshotSelection{
	Ingest: dataset.Cols(
		dataset.IngestColUserID, dataset.IngestColCity,
		dataset.IngestColDownload, dataset.IngestColUpload,
		dataset.IngestColLatency, dataset.IngestColTier,
	),
}

// tileServer folds sealed .sxc segments into a tilequery engine and serves
// GET /v1/tiles. Folds are incremental: each request lists the segment
// directory and folds only files it has not seen; a vanished file (the
// batcher never removes segments, so that means Compact ran) resets the
// engine and refolds the directory. Because tile aggregation is
// integer-exact and placement is order-independent, any fold history over
// the same sealed rows — live seal-by-seal, cold-restart refold, or
// post-compaction refold — yields byte-identical responses. A segment
// that fails to fold is quarantined (see refresh), so one undecodable file
// costs its own rows, not the endpoint.
type tileServer struct {
	mu        sync.Mutex
	dir       string
	eng       *tilequery.Engine
	folded    map[string]bool
	bad       map[string]fileIdentity
	batchRows int
	logf      func(format string, args ...any)

	// Cumulative streamed-scan counters across folds, for /statsz: proof
	// the serving path never materializes unrequested columns (and, on
	// zoned segments, how many row groups the folds touched).
	colsDecoded   int64
	colsSkipped   int64
	blocksScanned int64
	refolds       uint64
}

func newTileServer(dir string, cfg tilequery.Config, cacheTiles, batchRows int, logf func(string, ...any)) *tileServer {
	return &tileServer{
		dir:       dir,
		eng:       tilequery.NewEngine(cfg, cacheTiles),
		folded:    make(map[string]bool),
		bad:       make(map[string]fileIdentity),
		batchRows: batchRows,
		logf:      logf,
	}
}

// fileIdentity is what a quarantined segment is remembered by: a file
// rewritten under the same name gets another chance to fold.
type fileIdentity struct {
	size, modNanos int64
}

// refresh folds segments sealed since the last call, resetting first if
// compaction rewrote the directory. A segment that fails to fold is
// quarantined by name, size and modification time and skipped until it
// changes; the remaining segments are refolded in the same call.
func (ts *tileServer) refresh() error {
	names, err := listSegments(ts.dir)
	if err != nil {
		return err
	}
	present := make(map[string]bool, len(names))
	for _, name := range names {
		present[name] = true
	}
	for name := range ts.bad {
		if !present[name] {
			delete(ts.bad, name)
		}
	}
	for name := range ts.folded {
		if !present[name] {
			ts.reset()
			break
		}
	}
	failed := make(map[string]bool) // not retried before the next call
	for i := 0; i < len(names); i++ {
		name := names[i]
		if ts.folded[name] || failed[name] {
			continue
		}
		if bad, ok := ts.bad[name]; ok {
			if bad == ts.identify(name) {
				continue
			}
			delete(ts.bad, name)
		}
		if err := ts.foldSegment(name); err != nil {
			// A streamed fold is provisional until the scan's final
			// verification, so a failure may have folded a partial
			// segment. Quarantine the file, reset, and refold the other
			// segments from the first: the engine's state stays a pure
			// function of whole sealed segments. Each restart fails
			// another name, so there are at most len(names).
			ts.logf("ingest: tiles: quarantined %s: %v", name, err)
			failed[name] = true
			ts.bad[name] = ts.identify(name)
			ts.reset()
			i = -1
			continue
		}
		ts.folded[name] = true
	}
	return nil
}

// identify returns the segment's size and modification time, or the zero
// identity if it cannot be read (a file gone by the next listing leaves
// the quarantine anyway).
func (ts *tileServer) identify(name string) fileIdentity {
	fi, err := os.Stat(filepath.Join(ts.dir, name))
	if err != nil {
		return fileIdentity{}
	}
	return fileIdentity{size: fi.Size(), modNanos: fi.ModTime().UnixNano()}
}

// reset empties the engine so the next folds start from no segments.
func (ts *tileServer) reset() {
	ts.eng.Reset()
	ts.folded = make(map[string]bool)
	ts.refolds++
}

// foldSegment streams one segment batch-by-batch into the engine
// (DESIGN.md §14): six of the eleven ingest columns decode in bounded
// batches and fold straight into the integer-exact tile accumulators, so
// fold memory is O(batch), not O(segment).
func (ts *tileServer) foldSegment(name string) error {
	src, err := dataset.OpenFileSource(filepath.Join(ts.dir, name))
	if err != nil {
		return err
	}
	defer src.Close()
	sc, err := dataset.NewBlockScanner(src, tileSelection, ts.batchRows)
	if err != nil {
		return err
	}
	err = ts.eng.AddScan(sc)
	ctr := sc.Counters()
	ts.colsDecoded += int64(ctr.ColumnsDecoded)
	ts.colsSkipped += int64(ctr.ColumnsSkipped)
	ts.blocksScanned += int64(ctr.BlocksScanned)
	if err != nil {
		return err
	}
	if ctr.SectionsDecoded == 0 {
		return fmt.Errorf("segment carries no ingest section")
	}
	return nil
}

// tileStats is a point-in-time tile-layer snapshot for /statsz.
type tileStats struct {
	tilequery.EngineStats
	Segments      int
	BadSegments   int
	Refolds       uint64
	ColsDecoded   int64
	ColsSkipped   int64
	BlocksScanned int64
}

func (ts *tileServer) stats() tileStats {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return tileStats{
		EngineStats:   ts.eng.Stats(),
		Segments:      len(ts.folded),
		BadSegments:   len(ts.bad),
		Refolds:       ts.refolds,
		ColsDecoded:   ts.colsDecoded,
		ColsSkipped:   ts.colsSkipped,
		BlocksScanned: ts.blocksScanned,
	}
}

// handleTiles serves GET /v1/tiles?zoom=&bbox=minLat,minLon,maxLat,maxLon
// &metric=&format=. zoom defaults to the base aggregation zoom; bbox
// restricts output to the covered tile rectangle; metric selects a
// single-value projection (see tilequery.Metrics); format is json
// (default) or csv. Every query, ranged or not, is answered from the
// resident engine after folding any newly sealed segments.
func (s *Server) handleTiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	ts := s.tiles
	q := r.URL.Query()

	zoom := ts.eng.Zoom()
	if v := q.Get("zoom"); v != "" {
		z, err := strconv.Atoi(v)
		if err != nil || z < 1 || z > ts.eng.Zoom() {
			http.Error(w, fmt.Sprintf("ingest: zoom must be an integer in [1, %d]", ts.eng.Zoom()), http.StatusBadRequest)
			return
		}
		zoom = z
	}
	query := tilequery.Query{Zoom: zoom}
	if v := q.Get("bbox"); v != "" {
		parts := strings.Split(v, ",")
		if len(parts) != 4 {
			http.Error(w, "ingest: bbox wants minLat,minLon,maxLat,maxLon", http.StatusBadRequest)
			return
		}
		var f [4]float64
		for i, p := range parts {
			x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				http.Error(w, "ingest: bad bbox coordinate "+p, http.StatusBadRequest)
				return
			}
			f[i] = x
		}
		rng, err := opendata.TileRangeForBBox(f[0], f[1], f[2], f[3], zoom)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		query.Range = &rng
	}

	ts.mu.Lock()
	err := ts.refresh()
	var tiles []opendata.ContextTile
	if err == nil {
		tiles, err = ts.eng.Tiles(query)
	}
	ts.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	if q.Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		if err := tilequery.WriteTilesCSV(w, tiles); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	bp := s.bufPool.Get().(*[]byte)
	out, err := tilequery.AppendTilesJSON((*bp)[:0], zoom, tiles, q.Get("metric"))
	if err != nil {
		s.bufPool.Put(bp)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out = append(out, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
	*bp = out[:0]
	s.bufPool.Put(bp)
}

// appendTileStats renders the /statsz tile_cache block.
func appendTileStats(out []byte, st tileStats) []byte {
	out = append(out, `"tile_cache":{"rows":`...)
	out = strconv.AppendInt(out, int64(st.Rows), 10)
	out = append(out, `,"tiles":`...)
	out = strconv.AppendInt(out, int64(st.Tiles), 10)
	out = append(out, `,"segments":`...)
	out = strconv.AppendInt(out, int64(st.Segments), 10)
	out = append(out, `,"bad_segments":`...)
	out = strconv.AppendInt(out, int64(st.BadSegments), 10)
	out = append(out, `,"refolds":`...)
	out = strconv.AppendUint(out, st.Refolds, 10)
	out = append(out, `,"hits":`...)
	out = strconv.AppendUint(out, st.CacheHits, 10)
	out = append(out, `,"misses":`...)
	out = strconv.AppendUint(out, st.CacheMisses, 10)
	out = append(out, `,"invalidations":`...)
	out = strconv.AppendUint(out, st.Invalidations, 10)
	out = append(out, `,"entries":`...)
	out = strconv.AppendInt(out, int64(st.CacheLen), 10)
	out = append(out, `,"cols_decoded":`...)
	out = strconv.AppendInt(out, st.ColsDecoded, 10)
	out = append(out, `,"cols_skipped":`...)
	out = strconv.AppendInt(out, st.ColsSkipped, 10)
	out = append(out, `,"blocks_scanned":`...)
	out = strconv.AppendInt(out, st.BlocksScanned, 10)
	out = append(out, '}')
	return out
}
