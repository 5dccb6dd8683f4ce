package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/experiments"
	"speedctx/internal/ingest"
	"speedctx/internal/plans"
	"speedctx/internal/tilequery"
)

// perLayer are the metrics every workload reports with -trace 1. A layer
// the workload's path never enters reports 0: the path did no work there.
// README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{"client.ttfb_ms", "ms", "lower"},
	{"client.transfer_ms", "ms", "lower"},
	{"client.connects", "count", "lower"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"ingest.batch_handler_ms", "ms", "lower"},
	{"ingest.tiles_handler_ms", "ms", "lower"},
	{"ingest.accepted", "rows", "higher"},
	{"ingest.rejected", "rows", "lower"},
	{"core.classify_ns_per_row", "ns", "lower"},
	{"core.refit_ms", "ms", "lower"},
	{"core.refits", "count", "lower"},
	{"pipeline.submit_ns_per_row", "ns", "lower"},
	{"pipeline.backlog_rows_max", "rows", "lower"},
	{"pipeline.segments", "count", "lower"},
	{"dataset.seal_sort_ms", "ms", "lower"},
	{"dataset.seal_encode_ms", "ms", "lower"},
	{"dataset.segment_bytes_per_row", "B", "lower"},
	{"dataset.scan_io_ms", "ms", "lower"},
	{"dataset.scan_decode_ms", "ms", "lower"},
	{"dataset.blocks_skip_ratio", "ratio", "higher"},
	{"dataset.cols_skipped", "count", "higher"},
	{"tilequery.fold_rows_per_s", "rows/s", "higher"},
	{"tilequery.query_ms.full", "ms", "lower"},
	{"tilequery.query_ms.rollup", "ms", "lower"},
	{"tilequery.query_ms.nbhd", "ms", "lower"},
	{"tilequery.query_ms.city", "ms", "lower"},
	{"tilequery.render_ms", "ms", "lower"},
	{"tilequery.cache_hit_ratio", "ratio", "higher"},
	{"tilequery.invalidations", "count", "lower"},
	{"tilequery.refolds", "count", "lower"},
	{"dataset.generate_ookla_s", "s", "lower"},
	{"dataset.generate_mlab_s", "s", "lower"},
	{"dataset.generate_mba_s", "s", "lower"},
	{"experiments.city_cold_s", "s", "lower"},
	{"experiments.city_warm_s", "s", "lower"},
	{"core.fit_s", "s", "lower"},
	{"experiments.tables_s", "s", "lower"},
	{"experiments.figures_s", "s", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.heap_peak_mb", "MiB", "lower"},
	{"ledger.unattributed_share", "ratio", "lower"},
	{"ledger.tracing_overhead", "ratio", "lower"},
}

// exactCounts are the per-layer counts that repeat exactly for a seed:
// no timer decides them (one client per route, a fixed connection
// budget, or a probe over a directory the seed alone determines), so
// later changes may cite them as counts. The zone-map counts are exact on
// tiles, whose segment directory is built before the window.
var exactCounts = map[string]bool{
	"client.connects":           true,
	"ingest.rejected":           true,
	"dataset.blocks_skip_ratio": true,
	"dataset.cols_skipped":      true,
	"tilequery.refolds":         true,
}

// layerValues accumulates a traced run's per-layer metrics.
type layerValues struct {
	v     map[string]float64
	notes []string
}

func newLayerValues() *layerValues { return &layerValues{v: map[string]float64{}} }

func (l *layerValues) set(name string, v float64) { l.v[name] = v }

func (l *layerValues) add(name string, v float64) { l.v[name] += v }

// client records the load client's phase split and connection count.
// lags, when non-nil, are the open-loop generator's lateness samples.
func (l *layerValues) client(c *loadClient, traced *routeStats, lags []float64) {
	l.set("client.ttfb_ms", Median(traced.ttfb))
	l.set("client.transfer_ms", Median(traced.transfer))
	l.add("client.connects", float64(c.connects.Load()))
	if lags != nil {
		v, _ := Percentile(lags, 0.99)
		l.set("gen.lag_p99_ms", v)
	}
}

// overhead compares the traced half of the window with the untraced one.
func (l *layerValues) overhead(untraced, traced *routeStats) {
	u, t := Median(untraced.lat), Median(traced.lat)
	if u > 0 {
		l.set("ledger.tracing_overhead", (t-u)/u)
	}
	l.notes = append(l.notes, fmt.Sprintf("p50 untraced %.4f ms, traced %.4f ms", u, t))
}

// setupSpans reads the set-up ledger: cold city builds and model fits.
func (l *layerValues) setupSpans(spans []Span) {
	for _, s := range spans {
		switch s.Name {
		case "experiments.city":
			l.add("experiments.city_cold_s", s.Dur().Seconds())
		case "core.fit":
			l.add("core.fit_s", s.Dur().Seconds())
		}
	}
}

// runtime records the traced window's runtime/metrics figures.
func (l *layerValues) runtime(rt *runtimeSampler) {
	l.set("runtime.gc_cpu_fraction", rt.gcFraction)
	l.set("runtime.allocs_per_op", rt.allocsPerOp)
	l.set("runtime.heap_peak_mb", rt.heapPeakMiB)
}

// tileSelection is the pruned projection the tile server reads from a
// segment: the six columns the fold consumes.
var tileSelection = dataset.SnapshotSelection{
	Ingest: dataset.Cols(
		dataset.IngestColUserID, dataset.IngestColCity,
		dataset.IngestColDownload, dataset.IngestColUpload,
		dataset.IngestColLatency, dataset.IngestColTier,
	),
}

// probeWritePath times the write path's layers on the run's own rows:
// ClassifyOne per row, Pipeline.Submit per row into a fresh pipeline,
// and the seal's sort and encode on one seal-sized batch; it reads the
// in-process pipeline's sealed segments for bytes per row.
func (l *layerValues) probeWritePath(e *env, in *inprocHost, rows []dataset.IngestRow, dir string, segRows int) error {
	m := in.m
	work := append([]dataset.IngestRow(nil), rows...)
	t0 := time.Now()
	for i := range work {
		m.classify(&work[i])
	}
	l.set("core.classify_ns_per_row", float64(time.Since(t0).Nanoseconds())/float64(len(work)))

	pdir := filepath.Join(e.work, "probe-pipeline")
	p, err := ingest.NewPipeline(ingest.PipelineConfig{Dir: pdir, BatchRows: segRows, Sketches: m.specs})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := range work {
		if err := p.Submit(work[i]); err != nil {
			p.Close()
			return err
		}
	}
	l.set("pipeline.submit_ns_per_row", float64(time.Since(t0).Nanoseconds())/float64(len(work)))
	if err := p.Close(); err != nil {
		return err
	}
	os.RemoveAll(pdir)

	if segRows <= 0 {
		segRows = 65536
	}
	batch := make([]dataset.IngestRow, 0, segRows)
	for len(batch) < segRows {
		batch = append(batch, work[len(batch)%len(work)])
	}
	t0 = time.Now()
	dataset.SortIngestRows(batch)
	l.set("dataset.seal_sort_ms", ms(time.Since(t0)))
	t0 = time.Now()
	bundles, err := sketchBundles(m, batch)
	if err == nil {
		_, err = dataset.EncodeIngestSegmentSketches(dataset.ColumnizeIngest(batch), bundles)
	}
	if err != nil {
		return err
	}
	l.set("dataset.seal_encode_ms", ms(time.Since(t0)))

	_, sealed, _ := in.pipe.Stats()
	bytes, err := segmentBytes(dir, "seg-")
	if err != nil {
		return err
	}
	if sealed > 0 {
		l.set("dataset.segment_bytes_per_row", float64(bytes)/float64(sealed))
	}
	return nil
}

// sketchBundles bins a batch into the per-city tier sketch bundles a
// sealed segment embeds, in the pipeline's city-then-tier order.
func sketchBundles(m *models, batch []dataset.IngestRow) ([]dataset.SketchBundle, error) {
	sk := map[string]*core.TierSketches{}
	for _, row := range batch {
		ts := sk[row.City]
		if ts == nil {
			spec := m.specs[row.City]
			var err error
			if ts, err = core.NewTierSketches(spec.Spec, spec.Tiers); err != nil {
				return nil, err
			}
			sk[row.City] = ts
		}
		ts.AddSample(row.UploadTier, row.DownloadMbps, row.UploadMbps)
	}
	cities := make([]string, 0, len(sk))
	for c := range sk {
		cities = append(cities, c)
	}
	sort.Strings(cities)
	var out []dataset.SketchBundle
	for _, c := range cities {
		out = append(out, dataset.SketchBundle{City: c, Tier: dataset.UploadSketchTier, Sketch: sk[c].Upload})
		for ti, d := range sk[c].Downloads {
			out = append(out, dataset.SketchBundle{City: c, Tier: ti, Sketch: d})
		}
	}
	return out, nil
}

// segmentBytes totals the .sxc files in dir whose names start with prefix.
func segmentBytes(dir, prefix string) (int64, error) {
	files, err := segmentFiles(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		if !strings.HasPrefix(filepath.Base(f), prefix) {
			continue
		}
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// segmentFiles lists the .sxc files of dir in name order.
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), ".sxc") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}

// probeReadPath times the tile read path's layers over the segment set in
// dir: the scan from file and from memory (IO is the difference), the
// zone-map skips of a neighbourhood bbox, the fold, each query class
// through an engine, and rendering.
func (l *layerValues) probeReadPath(dir string, queries []tileQuery) error {
	files, err := segmentFiles(dir)
	if err != nil {
		return err
	}
	const reps = 3
	var fileNs, memNs []float64
	for r := 0; r < reps; r++ {
		var f, mem time.Duration
		for _, path := range files {
			t0 := time.Now()
			src, err := dataset.OpenFileSource(path)
			if err != nil {
				return err
			}
			_, err = drainScan(src, tileSelection)
			src.Close()
			if err != nil {
				return err
			}
			f += time.Since(t0)
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			t0 = time.Now()
			if _, err := drainScan(dataset.BytesSource(data), tileSelection); err != nil {
				return err
			}
			mem += time.Since(t0)
		}
		fileNs, memNs = append(fileNs, float64(f)), append(memNs, float64(mem))
	}
	decode := Median(memNs)
	l.set("dataset.scan_decode_ms", decode/1e6)
	l.set("dataset.scan_io_ms", max(0, Median(fileNs)-decode)/1e6)

	var nb *tileQuery
	for i := range queries {
		if queries[i].class == "nbhd" {
			nb = &queries[i]
			break
		}
	}
	if nb != nil {
		sel := tileSelection
		sel.Predicate = tilequery.Config{}.Pushdown(nb.q.Range)
		var scanned, skipped, colsSkipped int
		for _, path := range files {
			src, err := dataset.OpenFileSource(path)
			if err != nil {
				return err
			}
			ctr, err := drainScan(src, sel)
			src.Close()
			if err != nil {
				return err
			}
			scanned += ctr.BlocksScanned
			skipped += ctr.BlocksSkipped
			colsSkipped += ctr.ColumnsSkipped
		}
		if scanned+skipped > 0 {
			l.set("dataset.blocks_skip_ratio", float64(skipped)/float64(scanned+skipped))
		}
		l.set("dataset.cols_skipped", float64(colsSkipped))
	}

	eng := tilequery.NewEngine(tilequery.Config{}, 0)
	t0 := time.Now()
	for _, path := range files {
		src, err := dataset.OpenFileSource(path)
		if err != nil {
			return err
		}
		sc, err := dataset.NewBlockScanner(src, tileSelection, 0)
		if err == nil {
			err = eng.AddScan(sc)
		}
		src.Close()
		if err != nil {
			return err
		}
	}
	l.set("tilequery.fold_rows_per_s", float64(eng.Stats().Rows)/time.Since(t0).Seconds())

	byClass := map[string][]float64{}
	var render []float64
	for r := 0; r < reps; r++ {
		for _, q := range queries {
			t0 := time.Now()
			tiles, err := eng.Tiles(q.q)
			if err != nil {
				return err
			}
			byClass[q.class] = append(byClass[q.class], ms(time.Since(t0)))
			t0 = time.Now()
			if _, err := tilequery.AppendTilesJSON(nil, q.q.Zoom, tiles, q.metric); err != nil {
				return err
			}
			render = append(render, ms(time.Since(t0)))
		}
	}
	for class, xs := range byClass {
		l.set("tilequery.query_ms."+class, Median(xs))
	}
	l.set("tilequery.render_ms", Median(render))
	return nil
}

// drainScan reads every batch a scanner over src yields.
func drainScan(src dataset.ScanSource, sel dataset.SnapshotSelection) (dataset.DecodeCounters, error) {
	sc, err := dataset.NewBlockScanner(src, sel, 0)
	if err != nil {
		return dataset.DecodeCounters{}, err
	}
	for sc.Scan() {
	}
	return sc.Counters(), sc.Err()
}

// tileCache records the /statsz tile-cache deltas of the window.
func (l *layerValues) tileCache(before, after statsz) {
	hits := float64(after.TileCache.Hits - before.TileCache.Hits)
	misses := float64(after.TileCache.Misses - before.TileCache.Misses)
	if hits+misses > 0 {
		l.set("tilequery.cache_hit_ratio", hits/(hits+misses))
	}
	l.set("tilequery.invalidations", float64(after.TileCache.Invalidations-before.TileCache.Invalidations))
	l.set("tilequery.refolds", float64(after.TileCache.Refolds-before.TileCache.Refolds))
}

// probeRefit times core.FitFromSketches on each city's merged base and
// sealed sketches as they stand after the run.
func (l *layerValues) probeRefit(in *inprocHost) error {
	var total time.Duration
	n := 0
	for _, city := range in.m.cities {
		cm := in.m.byCity[city]
		sealed, ok := in.pipe.SealedSketchesFor(city)
		if !ok || sealed.Count() == 0 {
			continue
		}
		merged := cm.Base.Clone()
		if err := merged.Merge(sealed); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := core.FitFromSketches(merged, cm.Classifier.Result().Catalog, in.m.fitCfg); err != nil {
			return err
		}
		total += time.Since(t0)
		n++
	}
	if n > 0 {
		l.set("core.refit_ms", ms(total)/float64(n))
	}
	return nil
}

// probeGenerators times the three dataset generators for city A at scale.
func (l *layerValues) probeGenerators(scale float64, seed int64) error {
	cat, ok := plans.ByCity("A")
	if !ok {
		return fmt.Errorf("no catalog for city A")
	}
	c := experiments.PaperCounts["A"]
	n := func(x int) int { return max(1, int(float64(x)*scale+0.5)) }
	t0 := time.Now()
	dataset.GenerateOoklaPar(cat, n(c.Ookla), seed, 0)
	l.set("dataset.generate_ookla_s", time.Since(t0).Seconds())
	t0 = time.Now()
	dataset.GenerateMLabPar(cat, n(c.MLab), seed+1, dataset.DefaultMLabOptions(), 0)
	l.set("dataset.generate_mlab_s", time.Since(t0).Seconds())
	t0 = time.Now()
	dataset.GenerateMBAPar(cat, c.MBAUnits, n(c.MBA), seed+2, 0)
	l.set("dataset.generate_mba_s", time.Since(t0).Seconds())
	return nil
}

// finishTraced fills the per-layer metrics (0 where the path did no work),
// prints the ledger and writes the spans out.
func finishTraced(e *env, tr *Tracer, res *result, l *layerValues) error {
	spans := tr.Spans()
	l.set("ledger.unattributed_share", UnattributedShare(spans))
	e.printf("ledger (self time by span, top 12 of %d spans):\n", len(spans))
	for i, r := range Ledger(spans) {
		if i == 12 {
			break
		}
		e.printf("  %-28s n=%-7d total %10.1f ms  self %10.1f ms\n", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
	for _, n := range l.notes {
		e.printf("  %s\n", n)
	}
	e.printf("per-layer metrics (exact = repeats exactly for a seed; - = layer not on this path):\n")
	for _, d := range perLayer {
		v, ok := l.v[d.Name]
		mark := " "
		switch {
		case !ok:
			mark = "-"
		case exactCounts[d.Name]:
			mark = "exact"
		}
		res.set(d.Name, v, d.Unit)
		e.printf("  %-32s %16.6f %-6s %s\n", d.Name, v, d.Unit, mark)
	}
	tdir := filepath.Join(filepath.Dir(e.work), "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.ndjson", e.workload, e.seed))
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	e.printf("spans written to %s\n", path)
	return nil
}

// runtimeSampler reads runtime/metrics over one window: GC CPU share,
// allocations per operation and the peak live heap.
type runtimeSampler struct {
	on    bool
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
	s0    []metrics.Sample

	gcFraction, allocsPerOp, heapPeakMiB float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/memory/classes/heap/objects:bytes",
}

func newRuntimeSampler(on bool) *runtimeSampler { return &runtimeSampler{on: on} }

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// start begins a window; the last window started and stopped wins.
func (r *runtimeSampler) start() {
	if !r.on {
		return
	}
	r.s0 = readRuntime()
	r.peak = r.s0[3].Value.Uint64()
	r.stopc = make(chan struct{})
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stopc:
				return
			case <-t.C:
				s := readRuntime()
				r.peak = max(r.peak, s[3].Value.Uint64())
			}
		}
	}()
}

// stop ends the window that ran ops operations.
func (r *runtimeSampler) stop(ops int64) {
	if !r.on {
		return
	}
	close(r.stopc)
	r.wg.Wait()
	s1 := readRuntime()
	r.peak = max(r.peak, s1[3].Value.Uint64())
	gc := s1[0].Value.Float64() - r.s0[0].Value.Float64()
	total := s1[1].Value.Float64() - r.s0[1].Value.Float64()
	if total > 0 {
		r.gcFraction = gc / total
	}
	if ops > 0 {
		r.allocsPerOp = float64(s1[2].Value.Uint64()-r.s0[2].Value.Uint64()) / float64(ops)
	}
	r.heapPeakMiB = float64(r.peak) / (1 << 20)
}
