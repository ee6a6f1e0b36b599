package main

import (
	"math"
	"testing"
)

// TestSelfTimes checks the self-time arithmetic on a hand-built tree: a
// 100 ns root with two overlapping children (10–40, 30–60), one child that
// overhangs its end (90–120), and a grandchild inside the first child.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 25},
		{ID: 6, Name: "background", Start: 200, End: 230}, // no parent, no child
	}
	want := map[uint32]int64{
		1: 100 - (50 + 10), // children cover 10–60 and 90–100
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
		6: 30,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

// TestLadderSelf checks that rung self times telescope to the top rung,
// and that what they leave of an end-to-end p50 is the unattributed share.
func TestLadderSelf(t *testing.T) {
	rungP50 := []float64{2, 5, 9, 14, 200}
	self := ladderSelf(rungP50)
	want := []float64{2, 3, 4, 5, 186}
	sum := 0.0
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("rung %d: self %v, want %v", i, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != 200 {
		t.Errorf("self times sum to %v, want the top rung's 200", sum)
	}
	if got := unattributedShare(250, rungP50); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("unattributed share %v, want 0.2", got)
	}
	if got := unattributedShare(0, rungP50); got != 0 {
		t.Errorf("unattributed share of an unmeasured p50 is %v, want 0", got)
	}
}
