package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public call. Spans of one request share a root; Parent is -1 on a
// root.
type span struct {
	Name       string
	ID, Parent int
	Lane       string // Chrome track the span is drawn on
	Start, End int64  // nanoseconds since the ledger's epoch
}

func (s span) dur() int64 { return s.End - s.Start }

// ledger keeps every span in memory; write renders them through
// internal/trace as a Chrome trace when the run ends.
type ledger struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ids   int
}

func newLedger() *ledger { return &ledger{epoch: time.Now()} }

func (l *ledger) now() int64 { return int64(time.Since(l.epoch)) }

func (l *ledger) at(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// reserve hands out n consecutive span IDs, so a client can name a
// round trip before the server's span for it is recorded.
func (l *ledger) reserve(n int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	base := l.ids
	l.ids += n
	return base
}

func (l *ledger) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// call runs f inside a span named name under parent and returns the
// span's duration in nanoseconds.
func (l *ledger) call(name string, parent int, lane string, f func()) int64 {
	id := l.reserve(1)
	start := l.now()
	f()
	s := span{Name: name, ID: id, Parent: parent, Lane: lane, Start: start, End: l.now()}
	l.add(s)
	return s.dur()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = -1 << 62
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// Ledger tolerances. Every request's layer self times must add up to
// its root span (nesting), and a root that is the benchmark's own glue
// rather than a layer must be almost entirely covered by its layers.
const (
	residualTolPct     = 1.0
	unattributedTolPct = 2.0
)

// reconciliation is the ledger check over all roots.
type reconciliation struct {
	Roots           int
	ResidualPct     float64 // |sum of self times - root| over all roots, % of root time
	UnattributedPct float64 // self time of glue roots, % of their duration
}

// reconcile adds up each request's layer self times and compares them
// with the request's root span, the way core.CrossCheck holds the model
// against the simulator. glue names roots whose own self time belongs
// to no layer.
func reconcile(spans []span, glue map[string]bool) (reconciliation, error) {
	self := selfTimes(spans)
	parent := make(map[int]int, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	rootOf := func(id int) int {
		for parent[id] >= 0 {
			id = parent[id]
		}
		return id
	}
	sum := map[int]int64{}
	for _, s := range spans {
		sum[rootOf(s.ID)] += self[s.ID]
	}
	var r reconciliation
	var rootTime, resid, glueTime, glueSelf int64
	for _, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		r.Roots++
		rootTime += s.dur()
		d := sum[s.ID] - s.dur()
		if d < 0 {
			d = -d
		}
		resid += d
		if glue[s.Name] {
			glueTime += s.dur()
			glueSelf += self[s.ID]
		}
	}
	if rootTime > 0 {
		r.ResidualPct = 100 * float64(resid) / float64(rootTime)
	}
	if glueTime > 0 {
		r.UnattributedPct = 100 * float64(glueSelf) / float64(glueTime)
	}
	if r.ResidualPct > residualTolPct {
		return r, fmt.Errorf("layer self times miss their round trips by %.3f%% (tolerance %g%%)", r.ResidualPct, residualTolPct)
	}
	if r.UnattributedPct > unattributedTolPct {
		return r, fmt.Errorf("%.3f%% of traced request time belongs to no layer (tolerance %g%%)", r.UnattributedPct, unattributedTolPct)
	}
	return r, nil
}

// selfByName collects the self times, in microseconds, of every span
// with the given name.
func selfByName(spans []span, self map[int]int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID])/1e3)
		}
	}
	return out
}

// write renders the spans as a Chrome trace (loadable in Perfetto) at
// path, one track per lane.
func (l *ledger) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := trace.NewWall(len(l.spans) + 1)
	rec.RegisterProcess(0, "perfbench")
	tracks := map[string]int32{}
	for _, s := range l.spans {
		t, ok := tracks[s.Lane]
		if !ok {
			t = rec.Track(0, s.Lane)
			tracks[s.Lane] = t
		}
		rec.Emit(0, t, s.Name, "layer", s.Start, s.dur())
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
