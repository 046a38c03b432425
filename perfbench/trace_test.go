package main

import (
	"testing"
	"time"
)

func TestSelfTotals(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100, Allocs: 100, Bytes: 1000},
		// Two overlapping children cover [10,50] of the root: 40, not 50.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30, Allocs: 30, Bytes: 300},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50, Allocs: 20, Bytes: 200},
		{ID: 4, Parent: 2, Name: "leaf", Start: 12, End: 15, Allocs: 5, Bytes: 50},
		// A second span of an existing name adds to its totals.
		{ID: 5, Parent: 1, Name: "leaf", Start: 60, End: 70, Allocs: 1, Bytes: 10},
	}
	got := selfTotals(spans)
	want := map[string]layerTotals{
		"root": {Calls: 1, Self: 100 - 40 - 10, Allocs: 100 - 30 - 20 - 1, Bytes: 1000 - 300 - 200 - 10},
		"a":    {Calls: 1, Self: 20 - 3, Allocs: 25, Bytes: 250},
		"b":    {Calls: 1, Self: 30, Allocs: 20, Bytes: 200},
		"leaf": {Calls: 2, Self: 3 + 10, Allocs: 6, Bytes: 60},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestCoveredClipsToParent(t *testing.T) {
	parent := span{Start: 10, End: 20}
	kids := []span{
		{Start: 0, End: 12},  // clipped to [10,12]
		{Start: 18, End: 40}, // clipped to [18,20]
		{Start: 25, End: 30}, // outside
		{Start: 11, End: 12}, // inside the first
	}
	if got := covered(parent, kids); got != 4 {
		t.Errorf("covered = %v, want 4", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("no children: covered = %v", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(time.Millisecond)
	tr.end(inner)
	tr.end(outer)
	next := tr.begin("next")
	tr.end(next)
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans", len(tr.spans))
	}
	o, i, n := tr.spans[0], tr.spans[1], tr.spans[2]
	if o.Parent != 0 || i.Parent != o.ID || n.Parent != 0 {
		t.Errorf("parents: outer %d inner %d next %d", o.Parent, i.Parent, n.Parent)
	}
	if i.Start < o.Start || i.End > o.End || i.End-i.Start < time.Millisecond {
		t.Errorf("inner [%v,%v] not inside outer [%v,%v]", i.Start, i.End, o.Start, o.End)
	}

	var off *tracer
	off.end(off.begin("x"))
	off.count("x", 1)
}
