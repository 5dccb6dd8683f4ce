package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/experiments"
)

var allCities = experiments.CityIDs()

// ackLine is one line of a batch ack.
type ackLine struct {
	Tier       *int     `json:"tier"`
	UploadTier *int     `json:"upload_tier"`
	Confidence *float64 `json:"confidence"`
	Error      string   `json:"error"`
}

// parseAcks splits an NDJSON batch ack into its lines.
func parseAcks(body []byte) ([]ackLine, error) {
	var out []ackLine
	for _, line := range bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n")) {
		var a ackLine
		if err := json.Unmarshal(line, &a); err != nil {
			return nil, fmt.Errorf("ack line %q: %w", line, err)
		}
		if a.Error == "" && (a.Tier == nil || a.UploadTier == nil || a.Confidence == nil) {
			return nil, fmt.Errorf("ack line %q: missing fields", line)
		}
		out = append(out, a)
	}
	return out, nil
}

// checkAcks compares an ack body line by line with the expected
// assignments.
func checkAcks(body []byte, want []core.Assignment) error {
	acks, err := parseAcks(body)
	if err != nil {
		return err
	}
	if len(acks) != len(want) {
		return fmt.Errorf("%d ack lines for %d rows", len(acks), len(want))
	}
	for i, a := range acks {
		if a.Error != "" {
			return fmt.Errorf("row %d rejected: %s", i, a.Error)
		}
		w := want[i]
		if *a.Tier != w.Tier || *a.UploadTier != w.UploadTier || *a.Confidence != w.Confidence {
			return fmt.Errorf("row %d: ack {%d %d %v}, offline ClassifyOne {%d %d %v}",
				i, *a.Tier, *a.UploadTier, *a.Confidence, w.Tier, w.UploadTier, w.Confidence)
		}
	}
	return nil
}

// runIngest is the write path: two closed-loop connections post 64-row
// NDJSON batches for all four cities, refresh off, default seal size.
func runIngest(e *env) (*result, error) {
	cfg := serveCfg{cities: allCities}
	ref, err := loadModels(cfg.cities, nil, 0)
	if err != nil {
		return nil, err
	}
	g, err := newRowGen(e.seed, cfg.cities, e.size.users)
	if err != nil {
		return nil, err
	}
	rows := g.random(e.size.ingestBodies * batchRows)
	bodies := batchBodies(rows)
	want := make([]core.Assignment, len(rows))
	for i, row := range rows {
		want[i] = ref.byCity[row.City].Classifier.ClassifyOne(row.DownloadMbps, row.UploadMbps)
	}

	dir := filepath.Join(e.work, "segments")
	s, err := startServing(e, cfg, dir, func(base string) error {
		_, err := getStats(base)
		return err
	})
	if err != nil {
		return nil, err
	}
	base := s.h.url()
	before, err := getStats(base)
	if err != nil {
		s.h.stop()
		return nil, err
	}

	// Worker w sends bodies w, w+conns, w+2·conns, …, so workers touch
	// disjoint bodies and each body's first reply is stored without a
	// lock. Later replies to the same body must repeat it byte for byte;
	// the stored replies are checked against ClassifyOne after the window.
	const conns = 2
	first := make([][]byte, len(bodies))
	uses := make([]int64, len(bodies))
	var rowsAcked atomic.Int64
	client := newLoadClient(conns, s.tr, &s.reqIDs)
	defer client.close()
	bufs := [conns]*bytes.Buffer{new(bytes.Buffer), new(bytes.Buffer)}
	next := [conns]int{}
	url := base + "/v1/ingest/batch"
	rt := newRuntimeSampler(e.trace)
	var elapsed time.Duration
	var backlog uint64
	rss := sampleRSS(s.h.pid())
	untraced, traced := windows(s, func(dur time.Duration) *routeStats {
		st := &routeStats{}
		if s.in != nil {
			bl := startBacklog(s.in.pipe)
			defer func() { backlog = bl.stop() }()
		}
		rt.start()
		elapsed += closedLoop(conns, dur, st, func(w, _ int) (reply, bool) {
			i := (w + next[w]*conns) % len(bodies)
			next[w]++
			r := client.do(http.MethodPost, url, bodies[i], bufs[w])
			if !r.ok() {
				return r, false
			}
			rowsAcked.Add(int64(bytes.Count(bodies[i], []byte("\n"))))
			uses[i]++
			if first[i] == nil {
				first[i] = bytes.Clone(r.Body)
				return r, true
			}
			return r, bytes.Equal(first[i], r.Body)
		})
		rt.stop(int64(st.attempts))
		return st
	}, attempts)
	mem := rss.stop()
	res := newResult()
	after, derr := waitDrained(base, 30*time.Second)
	if derr != nil {
		res.fail("drain: %v", derr)
	}
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
	for i, body := range first {
		if body == nil {
			continue
		}
		lo := i * batchRows
		if err := checkAcks(body, want[lo:min(lo+batchRows, len(want))]); err != nil {
			res.Failed += uses[i]
			res.fail("body %d: %v", i, err)
		}
	}
	if err := client.keepAliveErr(); err != nil {
		res.fail("invalid run: %v", err)
	}
	reconcileIngest(res, before, after, rowsAcked.Load())

	acked := float64(rowsAcked.Load())
	e.printf("ingest: %d requests, %d failed, %d rows acknowledged, %d connections\n",
		all.attempts, res.Failed, rowsAcked.Load(), client.connects.Load())
	if !e.trace {
		e.named("ingest_rows_per_s", acked/elapsed.Seconds(), "rows/s")
		e.named("ingest_p50_ms", Median(all.lat), "ms")
		printTail(e, "ingest", all.lat)
		s.gateServing(res, mem)
		return res, nil
	}

	lv := newLayerValues()
	lv.client(client, traced[0], nil)
	lv.overhead(untraced[0], traced[0])
	lv.set("ingest.accepted", float64(after.Accepted-before.Accepted))
	lv.set("ingest.rejected", float64(after.Rejected-before.Rejected))
	spans := s.tr.Spans()
	lv.set("ingest.batch_handler_ms", Median(DursMs(spans, "ingest.batch_handler")))
	_, _, segs := s.in.pipe.Stats()
	lv.set("pipeline.backlog_rows_max", float64(backlog))
	lv.set("pipeline.segments", float64(segs))
	lv.setupSpans(spans)
	lv.runtime(rt)
	if err := lv.probeWritePath(e, s.in, rows, dir, 0); err != nil {
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

// reconcileIngest checks the /statsz deltas against what the client saw:
// every acknowledged row accepted, none rejected, all sealed after drain.
func reconcileIngest(res *result, before, after statsz, acked int64) {
	if got := int64(after.Accepted - before.Accepted); got != acked {
		res.fail("statsz: %d rows accepted, client saw %d acknowledged", got, acked)
	}
	if got := after.Rejected - before.Rejected; got != 0 {
		res.fail("statsz: %d rows rejected", got)
	}
	if after.SealedRows != after.Accepted {
		res.fail("statsz: %d rows sealed after drain, %d accepted", after.SealedRows, after.Accepted)
	}
}

// mergeStats pools the stats of several runs of a window.
func mergeStats(xs ...*routeStats) *routeStats {
	out := &routeStats{}
	for _, x := range xs {
		out.lat = append(out.lat, x.lat...)
		out.class = append(out.class, x.class...)
		out.ttfb = append(out.ttfb, x.ttfb...)
		out.transfer = append(out.transfer, x.transfer...)
		out.failed += x.failed
		out.attempts += x.attempts
	}
	return out
}

// attempts is a window's operation count, for windows.
func attempts(st *routeStats) int { return st.attempts }

// printTail prints a route's p99 with its sample count. With too few
// samples beyond it, p99 is withheld and the highest percentile that has
// enough is printed instead.
func printTail(e *env, route string, xs []float64) {
	for _, p := range []int{99, 95, 90} {
		v, ok := Percentile(xs, float64(p)/100)
		if ok {
			e.printf("  %-28s %14.4f ms (n=%d)\n", fmt.Sprintf("%s_p%d_ms", route, p), v, len(xs))
			return
		}
		if p == 99 {
			e.printf("  %-28s %14s ms (n=%d, need %d)\n", route+"_p99_ms", "withheld", len(xs), MinSamples(0.99))
		}
	}
}
