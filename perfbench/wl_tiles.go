package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

// tileQuery is one distinct GET /v1/tiles request of a workload's mix,
// with the response the oracle expects.
type tileQuery struct {
	class  string // full, rollup, nbhd or city
	path   string
	q      tilequery.Query
	metric string
	engine bool // no bbox: answered by the engine and its result cache
	want   []byte
	tiles  int
}

// tileClasses is the query mix: a client cycles through the classes in
// order, so every run sends each class equally often, and draws the
// query within a class from its seeded generator.
var tileClasses = []string{"full", "rollup", "nbhd", "city"}

// buildQueries makes the seeded distinct queries: the full base zoom; a
// zoom-12 roll-up per metric; nbhd zoom-16 neighbourhood boxes around
// seeded users; and a zoom-14 box over each city's whole user area.
func buildQueries(rng *rand.Rand, cities []string, users, nbhd int) ([]tileQuery, error) {
	out := []tileQuery{{class: "full", path: "/v1/tiles", q: tilequery.Query{Zoom: opendata.TileZoom}, engine: true}}
	for _, m := range tilequery.Metrics {
		out = append(out, tileQuery{class: "rollup", path: "/v1/tiles?zoom=12&metric=" + m,
			q: tilequery.Query{Zoom: 12}, metric: m, engine: true})
	}
	box := func(class string, zoom int, lat, lon, half float64) error {
		f := func(x float64) string { return strconv.FormatFloat(x, 'f', 6, 64) }
		parts := []string{f(lat - half), f(lon - half), f(lat + half), f(lon + half)}
		var v [4]float64
		for i, p := range parts {
			v[i], _ = strconv.ParseFloat(p, 64)
		}
		rng, err := opendata.TileRangeForBBox(v[0], v[1], v[2], v[3], zoom)
		if err != nil {
			return err
		}
		out = append(out, tileQuery{class: class,
			path: fmt.Sprintf("/v1/tiles?zoom=%d&bbox=%s", zoom, strings.Join(parts, ",")),
			q:    tilequery.Query{Zoom: zoom, Range: &rng}})
		return nil
	}
	for i := 0; i < nbhd; i++ {
		city := cities[rng.Intn(len(cities))]
		loc := opendata.UserLocation(opendata.CityCenter(city), opendata.DefaultLocSeed, rng.Intn(users))
		if err := box("nbhd", opendata.TileZoom, loc.Lat, loc.Lon, 0.004); err != nil {
			return nil, err
		}
	}
	for _, city := range cities {
		c := opendata.CityCenter(city)
		if err := box("city", 14, c.Lat, c.Lon, 0.1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// expectTiles renders each query's expected body from the reference fold
// of rows: tilequery.Aggregate's fold, built once for every query.
func expectTiles(queries []tileQuery, rows []dataset.IngestRow) error {
	ix := tilequery.NewIndex(tilequery.Config{})
	if _, err := ix.AddRows(tileRows(rows)); err != nil {
		return err
	}
	for i := range queries {
		q := &queries[i]
		tiles, err := ix.Tiles(q.q)
		if err != nil {
			return err
		}
		body, err := tilequery.AppendTilesJSON(nil, q.q.Zoom, tiles, q.metric)
		if err != nil {
			return err
		}
		q.want, q.tiles = append(body, '\n'), len(tiles)
	}
	return nil
}

// checkQueries fetches every query once and compares it with the oracle.
func checkQueries(base string, queries []tileQuery) error {
	var buf bytes.Buffer
	for _, q := range queries {
		resp, err := http.Get(base + q.path)
		if err != nil {
			return err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s: %s", q.path, resp.Status, buf.Bytes())
		}
		if !bytes.Equal(buf.Bytes(), q.want) {
			return fmt.Errorf("%s: %d-byte body differs from the reference fold's %d bytes", q.path, buf.Len(), len(q.want))
		}
	}
	return nil
}

// pick returns the k-th query of a client: class k mod 4, then a seeded
// query of that class.
func pick(k int, rng *rand.Rand, byClass map[string][]int, queries []tileQuery) *tileQuery {
	idx := byClass[tileClasses[k%len(tileClasses)]]
	return &queries[idx[rng.Intn(len(idx))]]
}

func classIndex(queries []tileQuery) map[string][]int {
	out := map[string][]int{}
	for i, q := range queries {
		out[q.class] = append(out[q.class], i)
	}
	return out
}

// runTiles is the read path: two closed-loop connections query a seeded
// mix over all four cities' compacted, clustered snapshot plus a few
// fresh unclustered segments.
func runTiles(e *env) (*result, error) {
	cfg := serveCfg{cities: allCities}
	ref, err := loadModels(cfg.cities, nil, 0)
	if err != nil {
		return nil, err
	}
	g, err := newRowGen(e.seed, cfg.cities, e.size.users)
	if err != nil {
		return nil, err
	}
	rows := g.covering(e.size.preloadRows)
	fresh := g.random(e.size.freshSegs * e.size.freshSegRows)
	ref.classifyAll(rows)
	ref.classifyAll(fresh)
	dir := filepath.Join(e.work, "segments")
	if err := prepareSegments(dir, ref, rows, fresh, e.size.freshSegRows); err != nil {
		return nil, err
	}
	queries, err := buildQueries(rand.New(rand.NewSource(e.seed)), cfg.cities, e.size.users, e.size.nbhdQueries)
	if err != nil {
		return nil, err
	}
	if err := expectTiles(queries, append(rows, fresh...)); err != nil {
		return nil, err
	}
	byClass := classIndex(queries)

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
	const conns = 2
	client := newLoadClient(conns, s.tr, &s.reqIDs)
	defer client.close()
	bufs := [conns]*bytes.Buffer{new(bytes.Buffer), new(bytes.Buffer)}
	rngs := [conns]*rand.Rand{rand.New(rand.NewSource(e.seed*31 + 1)), rand.New(rand.NewSource(e.seed*31 + 2))}
	sent := [conns]int{}
	var engineTiles atomic.Int64
	rt := newRuntimeSampler(e.trace)
	rss := sampleRSS(s.h.pid())
	untraced, traced := windows(s, func(dur time.Duration) *routeStats {
		st := &routeStats{}
		rt.start()
		closedLoop(conns, dur, st, func(w, _ int) (reply, bool) {
			q := pick(w+sent[w], rngs[w], byClass, queries)
			sent[w]++
			r := client.do(http.MethodGet, base+q.path, nil, bufs[w])
			r.Class = q.class
			ok := r.ok() && bytes.Equal(r.Body, q.want)
			if ok {
				if q.engine {
					engineTiles.Add(int64(q.tiles))
				}
			}
			return r, ok
		})
		rt.stop(int64(st.attempts))
		return st
	}, attempts)
	res := newResult()
	after, err := getStats(base)
	if err != nil {
		res.fail("statsz: %v", err)
	}
	mem := rss.stop()
	var perr error
	mem.peak, perr = vmHWM(s.h.pid())
	if err := s.h.stop(); err != nil {
		res.fail("stop: %v", err)
	}
	if perr != nil {
		return nil, perr
	}
	all := mergeStats(append(untraced, traced...)...)
	res.Attempted, res.Failed = int64(all.attempts), int64(all.failed)
	if err := client.keepAliveErr(); err != nil {
		res.fail("invalid run: %v", err)
	}
	lookups := (after.TileCache.Hits - before.TileCache.Hits) + (after.TileCache.Misses - before.TileCache.Misses)
	if int64(lookups) != engineTiles.Load() {
		res.fail("statsz: %d cache hits+misses, engine queries returned %d tiles", lookups, engineTiles.Load())
	}
	if after.Accepted != before.Accepted || after.Rejected != before.Rejected {
		res.fail("statsz: rows ingested during a read-only run")
	}

	e.printf("tiles: %d requests, %d failed, %d distinct queries, %d connections\n",
		all.attempts, res.Failed, len(queries), client.connects.Load())
	if !e.trace {
		e.named("tiles_qps", float64(all.attempts-all.failed)/e.dur().Seconds(), "req/s")
		e.named("tiles_p50_ms", Median(all.lat), "ms")
		printTail(e, "tiles", all.lat)
		for _, c := range tileClasses {
			e.named("tiles_p50_ms."+c, Median(all.ofClass(c)), "ms")
		}
		s.gateServing(res, mem)
		return res, nil
	}

	lv := newLayerValues()
	lv.client(client, traced[0], nil)
	lv.overhead(untraced[0], traced[0])
	lv.set("ingest.accepted", 0)
	lv.set("ingest.rejected", 0)
	spans := s.tr.Spans()
	lv.set("ingest.tiles_handler_ms", Median(DursMs(spans, "ingest.tiles_handler")))
	lv.tileCache(before, after)
	lv.setupSpans(spans)
	lv.runtime(rt)
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
