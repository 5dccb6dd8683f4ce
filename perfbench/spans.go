package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary. Start and End are
// offsets from the tracer's epoch; Parent is 0 for a root span; Req ties
// the spans of one request together (0 = not part of a request).
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil or disabled
// tracer hands out no-op spans, so untraced code paths pay one branch.
type Tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer, recording only when on.
func NewTracer(on bool) *Tracer {
	t := &Tracer{epoch: time.Now()}
	t.on.Store(on)
	return t
}

// SetOn switches recording on or off for spans begun afterwards.
func (t *Tracer) SetOn(on bool) { t.on.Store(on) }

// Open is a span in flight.
type Open struct {
	t      *Tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Duration
}

// ID is the open span's id, for children to name as parent (0 when the
// tracer is off).
func (o Open) ID() int64 { return o.id }

// Begin opens a span named name under parent within request req.
func (t *Tracer) Begin(name string, parent, req int64) Open {
	if t == nil || !t.on.Load() {
		return Open{}
	}
	return Open{t: t, id: t.ids.Add(1), parent: parent, req: req, name: name, start: time.Since(t.epoch)}
}

// End closes the span and records it.
func (o Open) End() {
	if o.t == nil {
		return
	}
	s := Span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: time.Since(o.t.epoch)}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// Record adds a span whose times were taken elsewhere.
func (t *Tracer) Record(name string, parent, req int64, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	s := Span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Time runs fn inside a span named name under parent.
func (t *Tracer) Time(name string, parent int64, fn func() error) error {
	o := t.Begin(name, parent, 0)
	defer o.End()
	return fn()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the recorded spans as one JSON object per line.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once.
func covered(lo, hi time.Duration, iv [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, x := range clipped {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// SelfTimes maps each span id to its self time: its duration minus the
// part of its interval its children cover.
func SelfTimes(spans []Span) map[int64]time.Duration {
	kids := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// LedgerRow is one span name's totals.
type LedgerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// Ledger sums duration and self time per span name, sorted by self time,
// largest first.
func Ledger(spans []Span) []LedgerRow {
	self := SelfTimes(spans)
	by := map[string]*LedgerRow{}
	for _, s := range spans {
		r := by[s.Name]
		if r == nil {
			r = &LedgerRow{Name: s.Name}
			by[s.Name] = r
		}
		r.Count++
		r.Total += s.Dur()
		r.Self += self[s.ID]
	}
	out := make([]LedgerRow, 0, len(by))
	for _, r := range by {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// UnattributedShare is the share of the root spans' time that no child
// span covers: the attribution gap of the ledger. Zero when there are no
// root spans.
func UnattributedShare(spans []Span) float64 {
	self := SelfTimes(spans)
	var total, gap time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.Dur()
			gap += self[s.ID]
		}
	}
	if total <= 0 {
		return 0
	}
	return float64(gap) / float64(total)
}

// DursMs returns the durations of every span named name, in milliseconds.
func DursMs(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.Dur()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
