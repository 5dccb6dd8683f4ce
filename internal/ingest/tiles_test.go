package ingest

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

func getTiles(t testing.TB, client *http.Client, url, params string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url + "/v1/tiles" + params)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// wantTiles renders the response a query must return over rows: the
// library fold of the rows under the tiers the server stamps on them.
func wantTiles(t testing.TB, cls map[string]*core.Classifier, rows []dataset.IngestRow, q tilequery.Query) []byte {
	t.Helper()
	stamped := append([]dataset.IngestRow(nil), rows...)
	for i := range stamped {
		stamped[i].Tier = cls[stamped[i].City].ClassifyOne(stamped[i].DownloadMbps, stamped[i].UploadMbps).Tier
	}
	return append(renderIndex(t, memoryIndex(t, stamped), q), '\n')
}

// memoryIndex is the in-memory AddRows fold of rows: the reference every
// segment fold must reproduce.
func memoryIndex(t testing.TB, rows []dataset.IngestRow) *tilequery.Index {
	t.Helper()
	r := &tilequery.Rows{}
	for _, row := range rows {
		r.UserID = append(r.UserID, row.UserID)
		r.City = append(r.City, row.City)
		r.Download = append(r.Download, row.DownloadMbps)
		r.Upload = append(r.Upload, row.UploadMbps)
		r.Latency = append(r.Latency, row.LatencyMs)
		r.Tier = append(r.Tier, row.Tier)
	}
	ix := tilequery.NewIndex(tilequery.Config{Parallelism: 1})
	if _, err := ix.AddRows(r); err != nil {
		t.Fatal(err)
	}
	return ix
}

// renderIndex renders the index's answer to each query as tile JSON.
func renderIndex(t testing.TB, ix *tilequery.Index, qs ...tilequery.Query) []byte {
	t.Helper()
	var buf []byte
	for _, q := range qs {
		tiles, err := ix.Tiles(q)
		if err != nil {
			t.Fatal(err)
		}
		zoom := q.Zoom
		if zoom == 0 {
			zoom = ix.Zoom()
		}
		if buf, err = tilequery.AppendTilesJSON(buf, zoom, tiles, ""); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestTilesEndpointIdentity is the serving-path determinism gate: the
// /v1/tiles bytes from a server that watched segments seal one by one
// equal the library-path rendering of the same rows, survive a Compact
// (refold) unchanged, and equal a cold-restarted server's first response.
func TestTilesEndpointIdentity(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := t.TempDir()
	ts, srv, p := startServer(t, dir, PipelineConfig{BatchRows: 100, MaxBatchAge: -1}, cls)
	defer ts.Close()
	client := ts.Client()
	for i := range rows {
		postOne(t, client, ts.URL, &rows[i])
	}
	// Mid-run probe: sealing is asynchronous, so only the status is
	// asserted here.
	if code, body := getTiles(t, client, ts.URL, ""); code != http.StatusOK {
		t.Fatalf("mid-run /v1/tiles = %d: %s", code, body)
	}
	if err := p.Close(); err != nil { // seals the tail
		t.Fatal(err)
	}

	code, live := getTiles(t, client, ts.URL, "")
	if code != http.StatusOK {
		t.Fatalf("/v1/tiles = %d: %s", code, live)
	}

	// Library-path expectation over the same submissions, tiers recomputed
	// exactly as the server stamped them.
	want := wantTiles(t, cls, rows, tilequery.Query{})
	if !bytes.Equal(live, want) {
		t.Fatalf("endpoint bytes diverge from library aggregation (%d vs %d bytes)", len(live), len(want))
	}

	// Warm repeat: identical bytes, served from the result cache.
	if _, again := getTiles(t, client, ts.URL, ""); !bytes.Equal(again, live) {
		t.Fatal("warm response differs from cold response")
	}
	if st := srv.tiles.stats(); st.CacheHits == 0 {
		t.Fatalf("warm query hit no cache entries: %+v", st)
	}

	// Compaction rewrites the directory into one segment; the replayed fold
	// must reproduce the same bytes.
	if _, err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	if _, after := getTiles(t, client, ts.URL, ""); !bytes.Equal(after, live) {
		t.Fatal("response changed across Compact")
	}
	if st := srv.tiles.stats(); st.Refolds != 1 || st.Segments != 1 {
		t.Fatalf("expected one refold over one segment: %+v", st)
	}
	if st := srv.tiles.stats(); st.ColsSkipped == 0 || st.ColsDecoded == 0 {
		t.Fatalf("pruned fold decoded no/all columns: %+v", st)
	}

	// A cold server over the same directory answers identically at once.
	ts2, _, p2 := startServer(t, dir, PipelineConfig{}, cls)
	defer ts2.Close()
	defer p2.Close()
	if _, cold := getTiles(t, ts2.Client(), ts2.URL, ""); !bytes.Equal(cold, live) {
		t.Fatal("cold-restart response differs from live-fold response")
	}
}

func TestTilesEndpointQueries(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := t.TempDir()
	ts, _, p := startServer(t, dir, PipelineConfig{}, cls)
	defer ts.Close()
	client := ts.Client()
	for i := range rows {
		postOne(t, client, ts.URL, &rows[i])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// bbox around one fixture city's box selects exactly that city's tiles.
	city := rows[0].City
	c := opendata.CityCenter(city)
	bbox := fmt.Sprintf("?bbox=%g,%g,%g,%g", c.Lat-0.11, c.Lon-0.11, c.Lat+0.11, c.Lon+0.11)
	code, got := getTiles(t, client, ts.URL, bbox)
	if code != http.StatusOK {
		t.Fatalf("bbox query = %d: %s", code, got)
	}
	var cityRows []dataset.IngestRow
	for _, r := range rows {
		if r.City == city {
			cityRows = append(cityRows, r)
		}
	}
	want := wantTiles(t, cls, cityRows, tilequery.Query{})
	if !bytes.Equal(got, want) {
		t.Fatalf("bbox response does not isolate city %s tiles", city)
	}

	// Roll-up zoom plus metric projection.
	code, proj := getTiles(t, client, ts.URL, "?zoom=12&metric=download")
	if code != http.StatusOK || !bytes.Contains(proj, []byte(`"metric":"download"`)) {
		t.Fatalf("metric query = %d: %.120s", code, proj)
	}
	// CSV format carries the full schema header.
	code, csvBody := getTiles(t, client, ts.URL, "?format=csv")
	if code != http.StatusOK || !strings.HasPrefix(string(csvBody), "quadkey,avg_d_kbps,") {
		t.Fatalf("csv query = %d: %.120s", code, csvBody)
	}

	// Parameter validation.
	for _, bad := range []string{"?zoom=0", "?zoom=17", "?zoom=x", "?bbox=1,2,3", "?bbox=9,9,1,1", "?metric=nope"} {
		if code, body := getTiles(t, client, ts.URL, bad); code != http.StatusBadRequest {
			t.Fatalf("%s = %d (%.80s), want 400", bad, code, body)
		}
	}
	resp, err := client.Post(ts.URL+"/v1/tiles", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/tiles = %d, want 405", resp.StatusCode)
	}

	// statsz exposes the tile_cache block.
	resp, err = client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(stats, []byte(`"tile_cache":{"rows":`)) {
		t.Fatalf("statsz misses tile_cache: %s", stats)
	}
}

// TestTilesBBoxFromEngine is the bbox serving gate: over a directory
// holding a quadkey-clustered (v3) compaction beside two unclustered (v2)
// segments, neighbourhood and city boxes are answered from the resident
// engine with the bytes of the in-memory fold of every sealed row, leave
// the result cache's counters alone, and ignore a legacy push parameter.
func TestTilesBBoxFromEngine(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := t.TempDir()
	split := len(rows) - 200
	ts1, _, p1 := startServer(t, dir, PipelineConfig{}, cls)
	for i := range rows[:split] {
		postOne(t, ts1.Client(), ts1.URL, &rows[i])
	}
	ts1.Close()
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := CompactWith(dir, CompactOptions{ClusterZoom: opendata.TileZoom, ZoneBlockRows: 16}); err != nil {
		t.Fatal(err)
	}
	ts, srv, p := startServer(t, dir, PipelineConfig{BatchRows: 100, MaxBatchAge: -1}, cls)
	defer ts.Close()
	client := ts.Client()
	for i := split; i < len(rows); i++ {
		postOne(t, client, ts.URL, &rows[i])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{CompactedName, "seg-00000000.sxc", "seg-00000001.sxc"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("segment directory = %v, want %v", names, want)
	}

	box := func(zoom int, lat, lon, half float64) (string, tilequery.Query) {
		rng, err := opendata.TileRangeForBBox(lat-half, lon-half, lat+half, lon+half, zoom)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("?zoom=%d&bbox=%g,%g,%g,%g", zoom, lat-half, lon-half, lat+half, lon+half),
			tilequery.Query{Zoom: zoom, Range: &rng}
	}
	c := opendata.CityCenter(rows[0].City)
	u := opendata.UserLocation(c, opendata.DefaultLocSeed, rows[0].UserID)
	nbhd, nbhdQ := box(opendata.TileZoom, u.Lat, u.Lon, 0.004)
	city, cityQ := box(14, c.Lat, c.Lon, 0.1)

	before := srv.tiles.stats()
	for _, q := range []struct {
		params string
		query  tilequery.Query
	}{{nbhd, nbhdQ}, {city, cityQ}} {
		code, got := getTiles(t, client, ts.URL, q.params)
		if code != http.StatusOK {
			t.Fatalf("%s = %d: %s", q.params, code, got)
		}
		want := wantTiles(t, cls, rows, q.query)
		if !bytes.Equal(got, want) || !bytes.Contains(want, []byte(`"quadkey"`)) {
			t.Fatalf("%s: served %d bytes, fold renders %d: %.200s", q.params, len(got), len(want), got)
		}
		if _, legacy := getTiles(t, client, ts.URL, q.params+"&push=0"); !bytes.Equal(legacy, got) {
			t.Fatalf("%s&push=0 differs from %s", q.params, q.params)
		}
	}
	after := srv.tiles.stats()
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses || after.CacheLen != before.CacheLen {
		t.Fatalf("bbox queries moved the tile cache: %+v, was %+v", after.EngineStats, before.EngineStats)
	}
	// Zone-mapped row groups are counted only when a v3 file was folded.
	if after.Segments != 3 || after.Rows != len(rows) || after.BlocksScanned == 0 {
		t.Fatalf("engine folded %d segments / %d rows / %d zoned groups, want 3 / %d / > 0", after.Segments, after.Rows, after.BlocksScanned, len(rows))
	}

	resp, err := client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(stats, []byte(`"tile_cache":{`)) || bytes.Contains(stats, []byte(`"pushdown"`)) {
		t.Fatalf("statsz tile blocks: %s", stats)
	}
}

// TestTilesAfterRestartWithoutCompaction reopens a pipeline over segments
// an earlier process sealed but never compacted: the new process must seal
// under fresh names, leaving the earlier files byte-unchanged, and serve
// the fold of both processes' rows.
func TestTilesAfterRestartWithoutCompaction(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := t.TempDir()
	cfg := PipelineConfig{BatchRows: 100, MaxBatchAge: -1}
	half := len(rows) / 2
	ts1, _, p1 := startServer(t, dir, cfg, cls)
	for i := range rows[:half] {
		postOne(t, ts1.Client(), ts1.URL, &rows[i])
	}
	ts1.Close()
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("first run sealed %v, want several segments", names)
	}
	first := make(map[string][]byte, len(names))
	for _, name := range names {
		if first[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}

	ts, _, p := startServer(t, dir, cfg, cls)
	defer ts.Close()
	client := ts.Client()
	// Fold the first run's segments before the second run seals any.
	if code, got := getTiles(t, client, ts.URL, ""); code != http.StatusOK || !bytes.Equal(got, wantTiles(t, cls, rows[:half], tilequery.Query{})) {
		t.Fatalf("restarted server = %d, not the first run's fold", code)
	}
	for i := half; i < len(rows); i++ {
		postOne(t, client, ts.URL, &rows[i])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range first {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed across the restart (err %v)", name, err)
		}
	}
	if _, got := getTiles(t, client, ts.URL, ""); !bytes.Equal(got, wantTiles(t, cls, rows, tilequery.Query{})) {
		t.Fatal("tiles after the restart differ from the fold of both runs' rows")
	}
}

// TestTilesQuarantineBadSegment puts undecodable segments next to good
// ones: /v1/tiles must keep answering with the fold of the good rows, and
// /statsz must count the quarantined files. The corrupt segment fails
// only at a late block checksum, after part of it folded, so the answer
// also proves the partial fold was discarded.
func TestTilesQuarantineBadSegment(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := t.TempDir()
	ts, srv, p := startServer(t, dir, PipelineConfig{BatchRows: 100, MaxBatchAge: -1}, cls)
	defer ts.Close()
	client := ts.Client()
	for i := range rows {
		postOne(t, client, ts.URL, &rows[i])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listSegments(dir)
	if err != nil || len(names) < 2 {
		t.Fatalf("sealed %v (err %v), want several segments", names, err)
	}
	want := wantTiles(t, cls, rows, tilequery.Query{})
	check := func(step string, bad int) {
		t.Helper()
		code, got := getTiles(t, client, ts.URL, "")
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: /v1/tiles = %d, %d bytes; want 200 with the good rows' %d bytes: %.200s", step, code, len(got), len(want), got)
		}
		resp, err := client.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		stats, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Contains(stats, []byte(fmt.Sprintf(`"bad_segments":%d,`, bad))) {
			t.Fatalf("%s: statsz wants bad_segments %d: %s", step, bad, stats)
		}
		if st := srv.tiles.stats(); st.Segments != len(names) {
			t.Fatalf("%s: engine holds %d segments, want the %d good ones", step, st.Segments, len(names))
		}
	}

	garbage := filepath.Join(dir, "seg-99999999"+segmentSuffix)
	if err := os.WriteFile(garbage, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	check("garbage", 1)
	refolds := srv.tiles.stats().Refolds
	check("garbage again", 1)
	if st := srv.tiles.stats(); st.Refolds != refolds {
		t.Fatalf("a known bad segment was refolded: refolds %d -> %d", refolds, st.Refolds)
	}

	// Sorts between the first two good segments, so it fails after one
	// of them folded in the same refresh.
	corrupt := filepath.Join(dir, strings.TrimSuffix(names[0], segmentSuffix)+"a"+segmentSuffix)
	if err := os.WriteFile(corrupt, partialFoldCorruption(t), 0o644); err != nil {
		t.Fatal(err)
	}
	check("corrupt segment", 2)

	if err := os.Remove(garbage); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(corrupt); err != nil {
		t.Fatal(err)
	}
	check("removed", 0)
}

// partialFoldCorruption returns a sealed segment of synthetic rows with
// one byte flipped where a file-mode tile scan fails only after it
// yielded rows: a selected column block longer than one read window,
// corrupted past its first window. The search steps back from the end;
// a source that is not an in-memory image takes the windowed file path.
func partialFoldCorruption(t testing.TB) []byte {
	t.Helper()
	seg, _, err := encodeSegment(testRows(40000, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	for off := len(seg) - 1; off >= 0; off -= 4093 {
		seg[off] ^= 0xff
		sc, err := dataset.NewBlockScanner(struct{ *bytes.Reader }{bytes.NewReader(seg)}, tileSelection, 0)
		if err == nil {
			rows := 0
			for sc.Scan() {
				rows += sc.Batch().Rows
			}
			if sc.Err() != nil && rows > 0 {
				return seg
			}
		}
		seg[off] ^= 0xff
	}
	t.Fatal("no single-byte corruption fails the scan after it yielded rows")
	return nil
}
