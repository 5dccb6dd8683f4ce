package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Headers the load client sets on traced requests so the in-process
// host's handler spans can name their client span as parent.
const (
	spanHeader = "X-Perfbench-Span"
	reqHeader  = "X-Perfbench-Req"
)

// loadClient is the benchmark's HTTP client: keep-alive connections
// bounded to conns, with every request's client-side phases split by
// httptrace.
type loadClient struct {
	hc       *http.Client
	conns    int
	connects atomic.Int64 // TCP connections dialled
	tr       *Tracer
	reqIDs   *atomic.Int64
}

func newLoadClient(conns int, tr *Tracer, reqIDs *atomic.Int64) *loadClient {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadClient{hc: &http.Client{Transport: t, Timeout: 60 * time.Second}, conns: conns, tr: tr, reqIDs: reqIDs}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// reply is one request's outcome. Body aliases the caller's buffer.
type reply struct {
	Status   int
	Body     []byte
	Lat      time.Duration // request start → body read
	TTFB     time.Duration // request written → first response byte
	Transfer time.Duration // first response byte → body read
	Done     time.Time     // when the body was read (or the request failed)
	Err      error
	Class    string // the caller's request class, for per-class latency
}

// ok reports a 200 with no transport error.
func (r reply) ok() bool { return r.Err == nil && r.Status == http.StatusOK }

// do sends one request, reading the response body into buf.
func (c *loadClient) do(method, url string, body []byte, buf *bytes.Buffer) reply {
	id := c.reqIDs.Add(1)
	root := c.tr.Begin("client.request", 0, id)
	var wrote, first time.Time
	trace := &httptrace.ClientTrace{
		ConnectDone: func(_, _ string, err error) {
			if err == nil {
				c.connects.Add(1)
			}
		},
		WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
		GotFirstResponseByte: func() { first = time.Now() },
	}
	ctx := httptrace.WithClientTrace(context.Background(), trace)
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		root.End()
		return reply{Err: err, Done: time.Now()}
	}
	if root.ID() != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(root.ID(), 10))
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		root.End()
		return reply{Err: err, Lat: time.Since(t0), Done: time.Now()}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if wrote.IsZero() {
		wrote = t0
	}
	if first.IsZero() {
		first = end
	}
	c.tr.Record("client.send", root.ID(), id, t0, wrote)
	c.tr.Record("client.transfer", root.ID(), id, first, end)
	root.End()
	return reply{Status: resp.StatusCode, Body: buf.Bytes(), Lat: end.Sub(t0),
		TTFB: first.Sub(wrote), Transfer: end.Sub(first), Done: end, Err: err}
}

// keepAliveErr reports a broken keep-alive: more connections dialled than
// the client may hold open. Such a run measures connection set-up, not
// the server, so it is invalid rather than slow.
func (c *loadClient) keepAliveErr() error {
	if n := c.connects.Load(); n > int64(c.conns) {
		return fmt.Errorf("keep-alive broke: %d connections dialled, at most %d allowed", n, c.conns)
	}
	return nil
}

// routeStats collects one route's per-request outcomes.
type routeStats struct {
	mu       sync.Mutex
	lat      []float64 // ms, successful requests, in completion order
	class    []string
	ttfb     []float64 // ms
	transfer []float64 // ms
	failed   int
	attempts int
}

func (s *routeStats) add(r reply, lat time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts++
	if !ok {
		s.failed++
		return
	}
	s.lat = append(s.lat, ms(lat))
	s.class = append(s.class, r.Class)
	s.ttfb = append(s.ttfb, ms(r.TTFB))
	s.transfer = append(s.transfer, ms(r.Transfer))
}

// ofClass returns the latencies of one request class.
func (s *routeStats) ofClass(class string) []float64 {
	var out []float64
	for i, c := range s.class {
		if c == class {
			out = append(out, s.lat[i])
		}
	}
	return out
}

// closedLoop runs conns workers, each sending its next request as soon as
// the previous one completed, until dur has passed. call makes request
// seq of worker w and reports the reply and whether it was correct.
func closedLoop(conns int, dur time.Duration, st *routeStats, call func(w, seq int) (reply, bool)) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				r, ok := call(w, seq)
				st.add(r, r.Lat, ok)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop sends requests on a fixed schedule over one connection:
// request k is due at start + k/rate, whatever happened to earlier ones.
// A dispatcher sleeps until each due time and hands the request to the
// sender; how late the dispatcher woke is the generator's own lag, and
// latency runs from the due time, so a stall also charges the requests
// queued behind it.
func openLoop(rate float64, dur time.Duration, st *routeStats, lags *[]float64, call func(seq int) (reply, bool)) {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	type job struct {
		seq int
		due time.Time
	}
	// Sized to the whole schedule so the dispatcher never blocks on a
	// slow sender: blocking would turn the open loop into a closed one.
	jobs := make(chan job, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := range jobs {
			r, ok := call(j.seq)
			st.add(r, r.Done.Sub(j.due), ok)
		}
	}()
	start := time.Now()
	lag := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		lag = append(lag, ms(time.Since(due)))
		jobs <- job{seq: k, due: due}
	}
	close(jobs)
	<-done
	*lags = lag
}
