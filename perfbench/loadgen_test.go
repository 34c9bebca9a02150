package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// Both loops send every request once over the client's connections and
// record a consistent timeline for each.
func TestLoopsSendEveryRequest(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		served.Add(1)
		_, _ = w.Write([]byte("{}\n"))
	}))
	defer ts.Close()
	c := newClient(ts.URL, 2)
	defer c.close()
	body := func(int) []byte { return []byte("{}") }
	ok := func(_, status int, b []byte) error { return statusOK(status, b) }

	due := make([]time.Duration, 200)
	for i := range due {
		due[i] = time.Duration(i) * 500 * time.Microsecond
	}
	open := openLoop(context.Background(), c, due, body, noSeq, ok)
	closed := closedLoop(context.Background(), c, 100, body, ok)
	if n := served.Load(); n != 300 {
		t.Fatalf("server saw %d requests, want 300", n)
	}
	for name, ph := range map[string]phase{"open": open, "closed": closed} {
		if err := firstErr(ph); err != nil {
			t.Fatalf("%s loop: %v", name, err)
		}
		for i, s := range ph.Shots {
			if !(s.Due <= s.Dispatched && s.Dispatched <= s.Sent && s.Sent < s.Done) {
				t.Fatalf("%s loop shot %d out of order: %+v", name, i, s)
			}
		}
	}
	if last := open.Shots[len(due)-1]; last.Due != due[len(due)-1] {
		t.Errorf("open loop lost its schedule: last due %v", last.Due)
	}
}

// A failing response is recorded against its request, not dropped.
func TestLoopsRecordFailures(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := newClient(ts.URL, 2)
	defer c.close()
	ph := closedLoop(context.Background(), c, 10, func(int) []byte { return nil },
		func(_, status int, b []byte) error { return statusOK(status, b) })
	if ph.failures() != 10 {
		t.Errorf("%d of 10 refused requests recorded as failed", ph.failures())
	}
}

// Every block of a stream draws each (arch, hosts) cell's eight points,
// with a fresh server compute time for each draw.
func TestPointSpaceBlocks(t *testing.T) {
	s := newPointSpace(3)
	pts := s.take(2 * 64)
	for b := 0; b < 2; b++ {
		count := map[point]int{}
		nonLocal := 0
		for _, p := range pts[b*64 : (b+1)*64] {
			if p.NonLocal {
				nonLocal++
			}
			if p.X < 0 || p.X >= maxComputeUS {
				t.Fatalf("compute time %v out of range", p.X)
			}
			p.X = 0
			count[p]++
		}
		if nonLocal != 16 {
			t.Errorf("block %d holds %d non-local points, want 16", b, nonLocal)
		}
		for arch := 1; arch <= 4; arch++ {
			for hosts := 1; hosts <= 2; hosts++ {
				for _, c := range cellFor(arch) {
					c.Arch, c.Hosts = arch, hosts
					want := 0
					for _, d := range cellFor(arch) {
						if d == (point{N: c.N, NonLocal: c.NonLocal}) {
							want++
						}
					}
					if count[c] != want {
						t.Fatalf("block %d holds %+v %d times, want %d", b, c, count[c], want)
					}
				}
			}
		}
	}
	again := newPointSpace(3).take(len(pts))
	for i := range pts {
		if pts[i] != again[i] {
			t.Fatalf("seed 3 drew %+v then %+v at %d", pts[i], again[i], i)
		}
	}
}

// A short traced serve-cold run against the in-process server: no
// request hits the response cache, the ledger and the replay's
// cross-check reconcile, and the trace file and every per-layer metric
// are written.
func TestTraceServeCold(t *testing.T) {
	if testing.Short() {
		t.Skip("solves fresh points in process")
	}
	o := opts{workload: "serve-cold", seed: 5, seconds: 3, root: t.TempDir()}
	res, err := traceServe(context.Background(), o, coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
	}
	for _, m := range layerMetrics() {
		if _, ok := res.metrics[m.Name]; !ok {
			t.Errorf("metric %s missing", m.Name)
		}
	}
	if r := res.metrics["service.respcache_hit_ratio"].Value; r != 0 {
		t.Errorf("hit ratio %v on fresh points, want 0", r)
	}
	if h, rt := res.metrics["service.handler_us"].Value, res.metrics["service.roundtrip_us"].Value; h <= 0 || h >= rt {
		t.Errorf("handler %vus outside round trip %vus", h, rt)
	}
	if a := res.metrics["core.analyze_ms"].Value; a <= 0 {
		t.Errorf("core.analyze_ms %v", a)
	}
	raw, err := os.ReadFile(tracePath(o))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Error("trace file is not JSON")
	}
	if filepath.Dir(tracePath(o)) != filepath.Join(o.root, ".bench_build", "traces") {
		t.Errorf("trace written outside the checkout's build directory: %s", tracePath(o))
	}
}
