package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gtpn"
	"repro/internal/obs"
)

// goldenObsPath pins every observability rendering of one fixed server
// state. Regenerate with
//
//	go test ./internal/service -run TestObservabilityGolden -update
//
// and review the diff: the bytes may change only when a rendering is
// meant to change.
const goldenObsPath = "testdata/observability.golden"

// TestObservabilityGolden drives a server's counters, rings and journal
// through package-internal calls — fixed durations, request IDs, sample
// times and journal clock; no HTTP round trip, no solve — and compares
// the bytes of every local observability body against the golden file.
// The JSON bodies are stored indented for readable diffs; indentation
// only adds whitespace outside strings, so the comparison still pins
// the compact bytes exactly.
func TestObservabilityGolden(t *testing.T) {
	gtpn.ResetSolveCache()
	gtpn.ResetSolverEngineStats()
	t.Cleanup(gtpn.ResetSolveCache)
	t.Cleanup(gtpn.ResetSolverEngineStats)

	now := time.UnixMilli(1_700_000_000_000)
	journal := obs.NewJournal(3, nil, "g1")
	journal.SetNow(func() time.Time { return now })
	s := New(Config{
		NodeName:         "g1",
		Workers:          2,
		HistorySize:      3,
		RecentRequests:   4,
		RespCacheEntries: 2,
		Journal:          journal,
	})

	// Four journal events into three slots: this first one is evicted.
	journal.Record(obs.EventPeerHealth, "g3", "healthy -> degraded")

	// One finished request, as instrument accounts it: start, end, SLO.
	seq := int64(0)
	finish := func(route string, us int64, status int, id RequestID) {
		goldenEnd(s, route, time.Duration(us)*time.Microsecond, status, id)
		s.slo.Observe(route, status, us)
	}
	serve := func(route string, us int64, status int) {
		seq++
		s.metrics.requestStart(route)
		finish(route, us, status, RequestID{Node: "g1", Seq: seq})
	}
	// hopped runs a request carrying hops through checkHops, the way the
	// compute handlers do, and finishes it with the status written.
	hopped := func(route, hops string, us int64) {
		seq++
		s.metrics.requestStart(route)
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/"+route, nil)
		r.Header.Set(HopsHeader, hops)
		if _, rejected := s.checkHops(w, r); !rejected {
			t.Fatalf("hops %q was not rejected", hops)
		}
		finish(route, us, w.Code, RequestID{Node: "g1", Seq: seq})
	}

	// solve: three observations whose max (14124) lies inside the
	// (10000, 25000] bucket.
	serve("solve", 9000, http.StatusOK)
	serve("solve", 12000, http.StatusOK)
	s.metrics.requestStart("solve")
	finish("solve", 14124, http.StatusOK, RequestID{Raw: "origin-7"})
	serve("experiment", 250, http.StatusOK) // exactly on a bucket bound
	s.metrics.requestStart("metrics")
	finish("metrics", 40, http.StatusOK, RequestID{Node: "g1", Seq: 1, Obs: true})
	s.SampleMetrics(now)

	// Refusals and errors on simulate: a 429 shed, three 508 hop-limit
	// rejections, one malformed hop header (400) and a plain 400.
	now = now.Add(time.Second)
	serve("simulate", 120, http.StatusTooManyRequests)
	s.recordShed("simulate", now.UnixMilli())
	for i := 0; i < 3; i++ {
		hopped("simulate", "2", 80)
	}
	hopped("simulate", "banana", 60)
	serve("simulate", 3_000_000, http.StatusBadRequest)
	goldenCount(s, 2, 3, 1) // coalesced, leaders, cluster_served
	s.TickSLO(now)
	s.SampleMetrics(now)

	// Response cache: three stores into two slots (one eviction), a
	// replica hit, a fast-path miss and a trace bypass.
	s.respCache.PutReplica("k1", []byte(`{"a":1}`))
	s.respCache.PutReplica("k2", []byte(`{"b":22}`))
	s.respCache.PutReplica("k3", []byte(`{"c":333}`))
	if _, ok := s.respCache.GetKey("k3"); !ok {
		t.Fatal("replica k3 not cached")
	}
	s.respCache.get([]byte("k0"))
	s.respCache.TraceBypass()

	// One request still in flight when the bodies are rendered.
	s.metrics.requestStart("sweep")

	// Recent-request ring: six rows into four slots.
	for i, d := range []decision{
		decisionLocalCompute, decisionRespCacheHit, decisionFlightFollower,
		decisionForwarded, decisionReplicaHit, decisionHopCappedLocal,
	} {
		goldenRecord(s, requestRecord{
			id:        RequestID{Node: "g1", Seq: int64(100 + i)},
			route:     "solve",
			key:       "key-" + string(rune('a'+i)),
			decision:  d,
			status:    http.StatusOK,
			hops:      i % 2,
			unixMS:    now.UnixMilli() + int64(i),
			decodeUS:  int64(10 + i),
			waitUS:    int64(20 + i),
			routeUS:   int64(30 + i),
			computeUS: int64(40 + i),
			totalUS:   int64(100 + i),
		})
	}

	// Drain: a refused request counts in requests_total and
	// rejected_draining; the journal records the drain.
	now = now.Add(time.Second)
	s.BeginDrain()
	w := httptest.NewRecorder()
	s.instrument("solve", nil)(w, httptest.NewRequest(http.MethodPost, "/v1/solve", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("drain refusal answered %d", w.Code)
	}
	journal.Record(obs.EventMembership, "g2", "joined")
	s.TickSLO(now)
	s.SampleMetrics(now)
	now = now.Add(time.Second)
	s.SampleMetrics(now)

	var prom, om bytes.Buffer
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, sec := range []struct {
		name string
		body []byte
		json bool
	}{
		{"MetricsJSON", s.MetricsJSON(), true},
		{"WritePrometheus", prom.Bytes(), false},
		{"WriteOpenMetrics", om.Bytes(), false},
		{"HistoryJSON", s.HistoryJSON(), true},
		{"RequestsJSON", s.RequestsJSON(), true},
		{"EventsJSON", s.EventsJSON(), true},
	} {
		got.WriteString("== " + sec.name + " ==\n")
		body := sec.body
		if sec.json {
			var ind bytes.Buffer
			if err := json.Indent(&ind, body, "", "  "); err != nil {
				t.Fatalf("%s is not JSON: %v\n%s", sec.name, err, body)
			}
			body = ind.Bytes()
		}
		got.Write(body)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenObsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenObsPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenObsPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("observability bytes differ from %s at line %d:\n got: %s\nwant: %s", goldenObsPath, i+1, g, w)
		}
	}
}
