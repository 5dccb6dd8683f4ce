package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"speedctx/internal/dataset"
	"speedctx/internal/ingest"
)

// backlogSampler tracks the pipeline's rows handed to the batcher but not
// yet sealed (queued − sealed from Pipeline.Stats) during a window.
type backlogSampler struct {
	pipe  *ingest.Pipeline
	stopc chan struct{}
	done  chan struct{}
	max   uint64
}

func startBacklog(pipe *ingest.Pipeline) *backlogSampler {
	b := &backlogSampler{pipe: pipe, stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-b.stopc:
				return
			case <-t.C:
				queued, sealed, _ := pipe.Stats()
				if queued > sealed {
					b.max = max(b.max, queued-sealed)
				}
			}
		}
	}()
	return b
}

func (b *backlogSampler) stop() uint64 {
	close(b.stopc)
	<-b.done
	return b.max
}

// runMixed runs writes beside reads: an open loop of ingest batches and an
// open loop of tile queries, one connection each, at fixed rates, over
// cities A and B with small frequent seals and live refresh on. The
// directory starts as a clean shutdown leaves it: one compacted snapshot.
func runMixed(e *env) (*result, error) {
	z := e.size
	cfg := serveCfg{cities: []string{"A", "B"}, segRows: z.mixedSegRows, age: z.mixedAge, refitRows: z.mixedRefitRows}
	ref, err := loadModels(cfg.cities, nil, 0)
	if err != nil {
		return nil, err
	}
	g, err := newRowGen(e.seed, cfg.cities, z.users)
	if err != nil {
		return nil, err
	}
	rows := g.covering(z.preloadRows)
	ref.classifyAll(rows)
	dir := filepath.Join(e.work, "segments")
	if err := prepareSegments(dir, ref, rows, nil, 0); err != nil {
		return nil, err
	}
	queries, err := buildQueries(rand.New(rand.NewSource(e.seed)), cfg.cities, z.users, z.nbhdQueries)
	if err != nil {
		return nil, err
	}
	if err := expectTiles(queries, rows); err != nil {
		return nil, err
	}
	byClass := classIndex(queries)
	nBatches := int(z.mixedBatchRate*e.seconds) + 1
	ingested := g.random(nBatches * batchRows)
	bodies := batchBodies(ingested)

	s, err := startServing(e, cfg, dir, func(base string) error { return checkQueries(base, queries) })
	if err != nil {
		return nil, err
	}
	base := s.h.url()
	before, err := getStats(base)
	if err != nil {
		s.h.stop()
		return nil, err
	}
	ingestClient := newLoadClient(1, s.tr, &s.reqIDs)
	tileClient := newLoadClient(1, s.tr, &s.reqIDs)
	defer ingestClient.close()
	defer tileClient.close()
	var ingestBuf, tileBuf bytes.Buffer
	acks := make([][]byte, len(bodies))
	sent := 0
	tileRng := rand.New(rand.NewSource(e.seed*31 + 1))
	tilesSent := 0
	rt := newRuntimeSampler(e.trace)

	type window struct {
		ingest, tiles       *routeStats
		ingestLag, tilesLag []float64
		backlog             uint64
	}
	run := func(dur time.Duration) window {
		w := window{ingest: &routeStats{}, tiles: &routeStats{}}
		var bl *backlogSampler
		if s.in != nil {
			bl = startBacklog(s.in.pipe)
		}
		rt.start()
		offset := sent
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			openLoop(z.mixedBatchRate, dur, w.ingest, &w.ingestLag, func(seq int) (reply, bool) {
				i := offset + seq
				r := ingestClient.do(http.MethodPost, base+"/v1/ingest/batch", bodies[i], &ingestBuf)
				if !r.ok() {
					return r, false
				}
				acks[i] = bytes.Clone(r.Body)
				return r, true
			})
		}()
		go func() {
			defer wg.Done()
			openLoop(z.mixedTileRate, dur, w.tiles, &w.tilesLag, func(int) (reply, bool) {
				q := pick(tilesSent, tileRng, byClass, queries)
				tilesSent++
				r := tileClient.do(http.MethodGet, base+q.path, nil, &tileBuf)
				r.Class = q.class
				return r, r.ok() && bytes.HasPrefix(r.Body, []byte(`{"zoom":`))
			})
		}()
		wg.Wait()
		rt.stop(int64(w.ingest.attempts + w.tiles.attempts))
		sent += w.ingest.attempts
		if bl != nil {
			w.backlog = bl.stop()
		}
		return w
	}
	rss := sampleRSS(s.h.pid())
	untraced, traced := windows(s, run, func(w window) int { return w.ingest.attempts + w.tiles.attempts })
	mem := rss.stop()
	merge := func(ws []window) window {
		out := window{ingest: &routeStats{}, tiles: &routeStats{}}
		for _, w := range ws {
			out.ingest = mergeStats(out.ingest, w.ingest)
			out.tiles = mergeStats(out.tiles, w.tiles)
			out.ingestLag = append(out.ingestLag, w.ingestLag...)
			out.tilesLag = append(out.tilesLag, w.tilesLag...)
			out.backlog = max(out.backlog, w.backlog)
		}
		return out
	}
	uw, tw := merge(untraced), merge(traced)

	res := newResult()
	// The oracle: every ack parses and accepts its row; after the drain,
	// every query equals the reference fold of the preloaded rows plus the
	// ingested rows under the verdicts their acks carried (refits change
	// verdicts during the run, so the acks, not a fixed model, decide).
	final := append([]dataset.IngestRow(nil), rows...)
	var acked int64
	for i := 0; i < sent; i++ {
		if acks[i] == nil {
			continue
		}
		lines, err := parseAcks(acks[i])
		lo := i * batchRows
		if err == nil && len(lines) != batchRows {
			err = fmt.Errorf("%d ack lines for %d rows", len(lines), batchRows)
		}
		if err != nil {
			res.fail("ingest batch %d: %v", i, err)
			res.Failed++
			continue
		}
		for j, a := range lines {
			if a.Error != "" {
				res.fail("ingest batch %d row %d rejected: %s", i, j, a.Error)
				res.Failed++
				continue
			}
			row := ingested[lo+j]
			row.Tier, row.UploadTier, row.Confidence = *a.Tier, *a.UploadTier, *a.Confidence
			final = append(final, row)
			acked++
		}
	}
	after, derr := waitDrained(base, 30*time.Second)
	if derr != nil {
		res.fail("drain: %v", derr)
	}
	if err := expectTiles(queries, final); err != nil {
		s.h.stop()
		return nil, err
	}
	if err := checkQueries(base, queries); err != nil {
		res.fail("after drain: %v", err)
		res.Failed++
	}
	var sealedSegs uint64
	if s.in != nil {
		_, _, sealedSegs = s.in.pipe.Stats()
	}
	var perr error
	mem.peak, perr = vmHWM(s.h.pid())
	if err := s.h.stop(); err != nil {
		res.fail("stop: %v", err)
	}
	if perr != nil {
		return nil, perr
	}
	reconcileIngest(res, before, after, acked)

	ing := mergeStats(uw.ingest, tw.ingest)
	til := mergeStats(uw.tiles, tw.tiles)
	res.Attempted += int64(ing.attempts + til.attempts + 1)
	res.Failed += int64(ing.failed + til.failed)
	for _, c := range []*loadClient{ingestClient, tileClient} {
		if err := c.keepAliveErr(); err != nil {
			res.fail("invalid run: %v", err)
		}
	}
	lags := append(append(append(uw.ingestLag, uw.tilesLag...), tw.ingestLag...), tw.tilesLag...)
	lagP99, _ := Percentile(lags, 0.99)
	if lagP99 > ms(maxGenLag) {
		res.fail("invalid run: the open-loop generator ran %.1f ms late at p99 (limit %v)", lagP99, maxGenLag)
	}

	e.printf("mixed: %d ingest + %d tile requests, %d failed, %d rows acknowledged, %d refits, generator lag p99 %.3f ms\n",
		ing.attempts, til.attempts, res.Failed, acked, after.generations()-before.generations(), lagP99)
	within := func(st *routeStats, limit time.Duration) int {
		n := 0
		for _, l := range st.lat {
			if l <= ms(limit) {
				n++
			}
		}
		return n
	}
	e.printf("  within limits: ingest %d/%d under %v, tiles %d/%d under %v\n",
		within(ing, mixedIngestLimit), ing.attempts, mixedIngestLimit, within(til, mixedTileLimit), til.attempts, mixedTileLimit)
	if !e.trace {
		e.named("ingest_rows_per_s", float64(acked)/e.dur().Seconds(), "rows/s")
		e.named("ingest_p50_ms", Median(ing.lat), "ms")
		printTail(e, "ingest", ing.lat)
		e.named("tiles_qps", float64(til.attempts-til.failed)/e.dur().Seconds(), "req/s")
		e.named("tiles_p50_ms", Median(til.lat), "ms")
		printTail(e, "tiles", til.lat)
		s.gateServing(res, mem)
		return res, nil
	}

	lv := newLayerValues()
	both := mergeStats(tw.ingest, tw.tiles)
	lv.client(ingestClient, both, lags)
	lv.add("client.connects", float64(tileClient.connects.Load()))
	lv.overhead(mergeStats(uw.ingest, uw.tiles), both)
	lv.set("ingest.accepted", float64(after.Accepted-before.Accepted))
	lv.set("ingest.rejected", float64(after.Rejected-before.Rejected))
	spans := s.tr.Spans()
	lv.set("ingest.batch_handler_ms", Median(DursMs(spans, "ingest.batch_handler")))
	lv.set("ingest.tiles_handler_ms", Median(DursMs(spans, "ingest.tiles_handler")))
	lv.set("core.refits", float64(after.generations()-before.generations()))
	lv.set("pipeline.backlog_rows_max", float64(tw.backlog))
	lv.set("pipeline.segments", float64(sealedSegs))
	lv.tileCache(before, after)
	lv.setupSpans(spans)
	lv.runtime(rt)
	if err := lv.probeRefit(s.in); err != nil {
		return nil, err
	}
	if err := lv.probeWritePath(e, s.in, ingested[:sent*batchRows], dir, z.mixedSegRows); err != nil {
		return nil, err
	}
	if err := lv.probeReadPath(dir, queries); err != nil {
		return nil, err
	}
	if err := lv.probeGenerators(modelScale, e.seed); err != nil {
		return nil, err
	}
	if err := finishTraced(e, s.tr, res, lv); err != nil {
		return nil, err
	}
	return res, nil
}
