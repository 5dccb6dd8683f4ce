package main

import (
	"math"
	"testing"
	"time"
)

func span(id, parent int64, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "root", 0, 100),
		span(2, 1, "a", 10, 30),
		span(3, 1, "b", 50, 60),
		span(4, 2, "a.inner", 12, 20),
	}
	self := SelfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 70, 2: 12, 3: 10, 4: 8} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	// Two concurrent children overlap on [20, 40): the parent's covered
	// time is the union [10, 60), not the 60 units the children sum to.
	spans := []Span{
		span(1, 0, "root", 0, 100),
		span(2, 1, "x", 10, 40),
		span(3, 1, "y", 20, 60),
		span(4, 1, "z", 20, 30), // inside y
	}
	if got := SelfTimes(spans)[1]; got != 50 {
		t.Fatalf("self %v, want 50", got)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	// A child that outlives its parent (an async write finishing after
	// the handler returned) covers only the overlapping part.
	spans := []Span{
		span(1, 0, "root", 0, 50),
		span(2, 1, "late", 40, 90),
		span(3, 1, "early", -10, 5),
	}
	if got := SelfTimes(spans)[1]; got != 35 {
		t.Fatalf("self %v, want 35", got)
	}
}

func TestSelfTimeAdjacentChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "root", 0, 30),
		span(2, 1, "a", 0, 10),
		span(3, 1, "b", 10, 20),
		span(4, 1, "c", 20, 30),
	}
	if got := SelfTimes(spans)[1]; got != 0 {
		t.Fatalf("self %v, want 0", got)
	}
}

func TestLedgerAndUnattributedShare(t *testing.T) {
	spans := []Span{
		span(1, 0, "client.request", 0, 100),
		span(2, 1, "handler", 20, 80),
		span(3, 0, "client.request", 200, 300),
		span(4, 3, "handler", 210, 300),
	}
	rows := Ledger(spans)
	if len(rows) != 2 || rows[0].Name != "handler" || rows[0].Self != 150 || rows[0].Count != 2 {
		t.Fatalf("ledger %+v", rows)
	}
	if rows[1].Total != 200 || rows[1].Self != 50 {
		t.Fatalf("root row %+v", rows[1])
	}
	if got := UnattributedShare(spans); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("unattributed %v, want 0.25", got)
	}
	if got := UnattributedShare(nil); got != 0 {
		t.Fatalf("empty ledger: %v", got)
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	tr := NewTracer(false)
	tr.Begin("off", 0, 0).End()
	tr.SetOn(true)
	root := tr.Begin("on", 0, 7)
	tr.Begin("child", root.ID(), 7).End()
	root.End()
	var nilTracer *Tracer
	nilTracer.Begin("nil", 0, 0).End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2: %+v", len(spans), spans)
	}
	if spans[0].Name != "child" || spans[0].Parent != root.ID() || spans[0].Req != 7 {
		t.Fatalf("child span %+v", spans[0])
	}
	if spans[1].Start > spans[0].Start || spans[1].End < spans[0].End {
		t.Fatalf("root %+v does not enclose child %+v", spans[1], spans[0])
	}
}
