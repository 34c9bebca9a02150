package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// A round trip 0-100 with a handler 10-60 and, under the handler, two
// overlapping children 20-40 and 30-50.
func ledgerFixture() []span {
	return []span{
		{Name: "rt", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "handler", ID: 1, Parent: 0, Start: 10, End: 60},
		{Name: "a", ID: 2, Parent: 1, Start: 20, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 50},
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	self := selfTimes(ledgerFixture())
	want := map[int]int64{0: 50, 1: 20, 2: 20, 3: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestReconcileNestedSpans(t *testing.T) {
	spans := ledgerFixture()[:3] // rt > handler > a: self times add up exactly
	rc, err := reconcile(spans, nil)
	if err != nil || rc.Roots != 1 || rc.ResidualPct != 0 {
		t.Fatalf("reconcile = %+v, %v", rc, err)
	}
}

// Overlapping siblings are each charged their full self time, so the
// layers of the fixture claim 110 of a 100 round trip.
func TestReconcileFlagsDoubleCounting(t *testing.T) {
	rc, err := reconcile(ledgerFixture(), nil)
	if err == nil || rc.ResidualPct != 10 {
		t.Fatalf("reconcile = %+v, %v; want a 10%% residual rejected", rc, err)
	}
}

// A child that outlives its parent is counted in full, which the
// residual shows.
func TestReconcileFlagsEscapedChild(t *testing.T) {
	spans := []span{
		{Name: "rt", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "handler", ID: 1, Parent: 0, Start: 50, End: 105},
	}
	if rc, err := reconcile(spans, nil); err == nil || rc.ResidualPct != 5 {
		t.Fatalf("reconcile = %+v, %v; want a 5%% residual rejected", rc, err)
	}
}

func TestReconcileUnattributedGlue(t *testing.T) {
	spans := []span{
		{Name: "replay", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "core.analyze", ID: 1, Parent: 0, Start: 0, End: 99},
	}
	rc, err := reconcile(spans, map[string]bool{"replay": true})
	if err != nil || rc.UnattributedPct != 1 {
		t.Fatalf("reconcile = %+v, %v; want 1%% unattributed accepted", rc, err)
	}
	spans[1].End = 90
	if rc, err := reconcile(spans, map[string]bool{"replay": true}); err == nil {
		t.Fatalf("10%% glue accepted: %+v", rc)
	}
}

// The cross-check fails when a call and its separately timed parts
// drift apart at the median, whichever side is larger, and ignores a
// few points that a stall pushed far apart.
func TestCrossCheck(t *testing.T) {
	if gap, err := crossCheck([]float64{0.01, -0.02, 0.03, 2, -0.9}); err != nil || math.Abs(gap-1) > 1e-9 {
		t.Errorf("1%% apart with two outliers: %g, %v", gap, err)
	}
	for _, gaps := range [][]float64{{-0.4, -0.3, -0.35}, {0.11, 0.13, 0.12}} {
		if gap, err := crossCheck(gaps); err == nil {
			t.Errorf("gaps %v accepted (%g%%)", gaps, gap)
		}
	}
	if _, err := crossCheck(nil); err == nil {
		t.Error("an empty cross-check passed")
	}
}

func TestLedgerWritesChromeTrace(t *testing.T) {
	led := newLedger()
	root := led.reserve(1)
	led.call("core.analyze", root, "replay", func() {})
	led.add(span{Name: "replay", ID: root, Parent: -1, Lane: "replay", Start: 0, End: led.now()})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := led.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans != 2 {
		t.Errorf("trace holds %d complete spans, want 2", spans)
	}
}
