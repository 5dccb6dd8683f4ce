package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"speedctx/internal/ingest"
	"speedctx/internal/tilequery"
)

// serveCfg is a serving workload's daemon configuration, rendered as
// speedtestd flags for the child and as library configs for the
// in-process host.
type serveCfg struct {
	cities    []string
	segRows   int           // rows per sealed segment (0 = default 65536)
	age       time.Duration // max age of a partial batch (0 = default 2s)
	refitRows int           // live-refresh row trigger (0 = refresh off)
}

func (c serveCfg) args(dir string) []string {
	a := []string{
		"-ingest-dir", dir,
		"-ingest-cities", strings.Join(c.cities, ","),
		"-ingest-fast=true",
		"-ingest-compact=false",
	}
	if c.segRows > 0 {
		a = append(a, "-ingest-batch-rows", strconv.Itoa(c.segRows))
	}
	if c.age > 0 {
		a = append(a, "-ingest-age", c.age.String())
	}
	if c.refitRows > 0 {
		a = append(a, "-ingest-refit-rows", strconv.Itoa(c.refitRows))
	}
	return a
}

// host is the system under test: a speedtestd child, or the same layers
// hosted in-process for a traced run.
type host interface {
	url() string
	pid() string // for /proc/<pid>/status
	stop() error
}

type daemonHost struct{ d *daemon }

func (h daemonHost) url() string { return "http://" + h.d.addr }
func (h daemonHost) pid() string { return strconv.Itoa(h.d.cmd.Process.Pid) }
func (h daemonHost) stop() error { return h.d.stop() }

// inprocHost serves the ingest API from this process, with a span around
// every handler call.
type inprocHost struct {
	m      *models
	pipe   *ingest.Pipeline
	srv    *ingest.Server
	hs     *http.Server
	addr   string
	served chan error
}

// handlerSpans names the handler span of each route.
var handlerSpans = map[string]string{
	"/v1/ingest/batch": "ingest.batch_handler",
	"/v1/tiles":        "ingest.tiles_handler",
}

// spanHandler wraps h with one span per request, parented to the client
// span named in the request headers.
func spanHandler(tr *Tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		name, ok := handlerSpans[r.URL.Path]
		if !ok {
			name = "ingest.other_handler"
		}
		o := tr.Begin(name, parent, req)
		h.ServeHTTP(w, r)
		o.End()
	})
}

func startInproc(tr *Tracer, cfg serveCfg, dir string) (*inprocHost, error) {
	root := tr.Begin("setup", 0, 0)
	defer root.End()
	m, err := loadModels(cfg.cities, tr, root.ID())
	if err != nil {
		return nil, err
	}
	h := &inprocHost{m: m, served: make(chan error, 1)}
	if err := tr.Time("pipeline.open", root.ID(), func() error {
		h.pipe, err = ingest.NewPipeline(ingest.PipelineConfig{Dir: dir, BatchRows: cfg.segRows, MaxBatchAge: cfg.age, Sketches: m.specs})
		return err
	}); err != nil {
		return nil, err
	}
	tr.Time("ingest.new_server", root.ID(), func() error {
		h.srv = ingest.NewServer(h.pipe, m.byCity, ingest.ServerConfig{
			RefitRows: cfg.refitRows, FitConfig: m.fitCfg, Tiles: tilequery.Config{},
		})
		return nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.Close()
		h.pipe.Close()
		return nil, err
	}
	h.addr = ln.Addr().String()
	h.hs = &http.Server{Handler: spanHandler(tr, h.srv.Handler())}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

func (h *inprocHost) url() string { return "http://" + h.addr }
func (h *inprocHost) pid() string { return "self" }

func (h *inprocHost) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.served
	h.srv.Close()
	if perr := h.pipe.Close(); err == nil {
		err = perr
	}
	return err
}

// serving is one serving workload's run: its host, its client side and
// the set-up times measured on the way to the first timed request.
type serving struct {
	e      *env
	tr     *Tracer
	reqIDs atomic.Int64
	h      host
	in     *inprocHost // the in-process host of a traced run
	setup  []float64   // seconds, one per set-up
	scaled []float64   // the same, scaled to the reference speed
	cal    *calibrator
	ready  int // the kernel sample taken with the kept host warm and idle

	// The untraced window's CPU time: in total, and per operation for
	// each slice, scaled to the reference speed.
	cpu     float64 // seconds
	ops     int
	sliceMs []float64
}

// startServing brings the system up and runs warm before the first timed
// request. An untraced run spawns the daemon size.setups times, timing
// spawn → warm-up done each time, and keeps the last one serving; the
// reference kernel is timed before each spawn and once more with the kept
// daemon idle, so each set-up lies between two samples. A traced run
// hosts the layers in-process once.
func startServing(e *env, cfg serveCfg, dir string, warm func(base string) error) (*serving, error) {
	s := &serving{e: e, tr: NewTracer(e.trace)}
	if e.trace {
		t0 := time.Now()
		in, err := startInproc(s.tr, cfg, dir)
		if err != nil {
			return nil, err
		}
		s.h, s.in = in, in
		if err := warm(in.url()); err != nil {
			in.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
		return s, nil
	}
	s.cal = newCalibrator()
	bin := filepath.Join(e.bin, "speedtestd")
	var marks []int
	for i := 0; i < e.size.setups; i++ {
		marks = append(marks, s.cal.sample())
		t0 := time.Now()
		d, err := startDaemon(bin, cfg.args(dir))
		if err != nil {
			return nil, err
		}
		h := daemonHost{d}
		if err := warm(h.url()); err != nil {
			h.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
		if i == e.size.setups-1 {
			s.h = h
			break
		}
		if err := h.stop(); err != nil {
			return nil, err
		}
	}
	s.ready = s.cal.sample()
	marks = append(marks, s.ready)
	for i, secs := range s.setup {
		s.scaled = append(s.scaled, secs*s.cal.scale(marks[i], marks[i+1]))
	}
	return s, nil
}

// windows runs the timed window; ops counts the operations of one run.
//
// An untraced run splits the window into size.slices equal slices and
// pauses the load after each to time the reference kernel, so each
// slice's CPU time per operation is scaled by the samples just around it
// and a drift of the machine's speed within the window is followed; the
// slices' median is the gated figure. A traced run splits the window in
// two halves, the first with the tracer off and the second with it on,
// so the tracing overhead is measured on the same host and data.
func windows[T any](s *serving, run func(dur time.Duration) T, ops func(T) int) (untraced, traced []T) {
	if s.e.trace {
		half := s.e.dur() / 2
		s.tr.SetOn(false)
		untraced = append(untraced, run(half))
		s.tr.SetOn(true)
		traced = append(traced, run(half))
		return untraced, traced
	}
	pid := s.h.pid()
	mark := s.ready
	for i := 0; i < s.e.size.slices; i++ {
		// A failed read means the daemon died; its requests fail, and
		// the run is not correct whatever the figure reads.
		c0, _ := procCPUSeconds(pid)
		t := run(s.e.dur() / time.Duration(s.e.size.slices))
		c1, _ := procCPUSeconds(pid)
		next := s.cal.sample()
		n := ops(t)
		s.cpu += c1 - c0
		s.ops += n
		s.sliceMs = append(s.sliceMs, (c1-c0)*1000/float64(max(n, 1))*s.cal.scale(mark, next))
		mark = next
		untraced = append(untraced, t)
	}
	return untraced, nil
}

// gateServing sets the gated metrics of an untraced serving run once its
// host has stopped: the set-up time and the CPU time per operation,
// scaled to the reference speed, and the resident set.
func (s *serving) gateServing(res *result, mem usage) {
	s.cal.print(s.e)
	s.e.named("setup_s.measured", Median(s.setup), "s")
	s.e.gate(res, "setup_s", Median(s.scaled), "s")
	mem.report(s.e, res, s.cpu*1000/float64(max(s.ops, 1)), Median(s.sliceMs))
}
