package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path"
	"strings"
	"sync"
	"testing"
)

// postHops posts with a forged X-Ipcd-Hops header.
func postHops(t *testing.T, url, body, hops string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HopsHeader, hops)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// The hop-limit rejection path: a request arriving with the forwarding
// budget spent is refused with 508 before any decode or compute, so a
// misconfigured ring can never loop a request.
func TestHopLimitRejection(t *testing.T) {
	s, ts := testServer(t, Config{})

	for _, route := range []string{"/v1/solve", "/v1/simulate"} {
		code, body := postHops(t, ts.URL+route, solveBody, "2")
		if code != http.StatusLoopDetected {
			t.Fatalf("%s hops=2: %d %s, want 508", route, code, body)
		}
		if !bytes.Contains(body, []byte(`"max_hops":2`)) {
			t.Fatalf("%s 508 body missing the limit: %s", route, body)
		}
	}
	// Far over the limit is rejected the same way.
	if code, body := postHops(t, ts.URL+"/v1/solve", solveBody, "7"); code != http.StatusLoopDetected {
		t.Fatalf("hops=7: %d %s, want 508", code, body)
	}
	// Malformed or negative counts are plain bad requests.
	for _, h := range []string{"banana", "-1", "1.5"} {
		if code, body := postHops(t, ts.URL+"/v1/solve", solveBody, h); code != http.StatusBadRequest {
			t.Fatalf("hops=%q: %d %s, want 400", h, code, body)
		}
	}
	// Within budget, the request serves normally.
	if code, body := postHops(t, ts.URL+"/v1/solve", solveBody, "1"); code != http.StatusOK {
		t.Fatalf("hops=1: %d %s, want 200", code, body)
	}

	var doc struct {
		Serving struct {
			RejectedHops int64 `json:"rejected_hops"`
			Errors       int64 `json:"errors"`
		} `json:"serving"`
	}
	if err := json.Unmarshal(s.MetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Serving.RejectedHops != 3 {
		t.Fatalf("rejected_hops = %d, want 3 (the 508s)", doc.Serving.RejectedHops)
	}
	// A refusal is counted once: errors holds only the three malformed
	// headers' 400s, not the 508s.
	if doc.Serving.Errors != 3 {
		t.Fatalf("errors = %d, want 3 (the 400s only)", doc.Serving.Errors)
	}
}

// fakeRouter is a scriptable ClusterRouter for exercising the service
// side of the cluster hook without real peers.
type fakeRouter struct {
	mu        sync.Mutex
	route     func(spec ComputeSpec) (RoutedResult, bool)
	serveable func(key string) bool // nil means never serveable from cache
	routed    []ComputeSpec
	offered   map[string][]byte
}

func (f *fakeRouter) Route(_ context.Context, spec ComputeSpec) (RoutedResult, bool) {
	f.mu.Lock()
	f.routed = append(f.routed, spec)
	fn := f.route
	f.mu.Unlock()
	if fn == nil {
		return RoutedResult{}, false
	}
	return fn(spec)
}

func (f *fakeRouter) CacheServeable(key string) bool {
	f.mu.Lock()
	fn := f.serveable
	f.mu.Unlock()
	if fn == nil {
		return false
	}
	return fn(key)
}

func (f *fakeRouter) Offer(spec ComputeSpec, body []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.offered == nil {
		f.offered = map[string][]byte{}
	}
	f.offered[spec.Key] = append([]byte(nil), body...)
}

func (f *fakeRouter) MetricsSnapshot() map[string]any {
	return map[string]any{"fake": true}
}

func (f *fakeRouter) AggregateMetrics(context.Context) []byte {
	return []byte(`{"aggregated":"metrics"}`)
}

// AggregateTimeline answers {"aggregated":"<last path element>"}.
func (f *fakeRouter) AggregateTimeline(_ context.Context, p, _ string) []byte {
	return []byte(`{"aggregated":"` + path.Base(p) + `"}`)
}

func (f *fakeRouter) Epoch() int64 { return 42 }

func (f *fakeRouter) HealthSnapshot() []any {
	return []any{map[string]any{"peer": "http://fake:1", "state": "healthy", "unix_ms": int64(0)}}
}

func (f *fakeRouter) routedSpecs() []ComputeSpec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]ComputeSpec(nil), f.routed...)
}

func (f *fakeRouter) offeredBody(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.offered[key]
	return b, ok
}

func TestClusterRouterHook(t *testing.T) {
	canned := []byte(`{"served":"by-peer"}`)
	fr := &fakeRouter{}
	s, ts := testServer(t, Config{Cluster: fr})

	// Route declines: the server computes locally and offers the result
	// back for replication, carrying the canonical body and key.
	code, _, body := post(t, ts.URL+"/v1/solve", solveBody)
	if code != http.StatusOK {
		t.Fatalf("local compute: %d %s", code, body)
	}
	specs := fr.routedSpecs()
	if len(specs) != 1 || specs[0].Route != "solve" || specs[0].Hops != 0 {
		t.Fatalf("routed specs = %+v, want one solve at zero hops", specs)
	}
	wantKey, err := SolveKey(2, 1, 1, 1140, false)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Key != wantKey {
		t.Fatalf("routed key = %q, want %q", specs[0].Key, wantKey)
	}
	var canonical map[string]any
	if err := json.Unmarshal(specs[0].Body, &canonical); err != nil || canonical["hosts"] != float64(1) {
		t.Fatalf("canonical body %s not replayable with defaults applied (err %v)", specs[0].Body, err)
	}
	offered, ok := fr.offeredBody(wantKey)
	if !ok || !bytes.Equal(offered, body) {
		t.Fatalf("offered body = %q, want the response bytes", offered)
	}

	// Route serves: the canned result is written verbatim and counted,
	// and nothing new is offered.
	fr.mu.Lock()
	fr.route = func(ComputeSpec) (RoutedResult, bool) {
		return RoutedResult{Status: http.StatusOK, Body: canned}, true
	}
	fr.mu.Unlock()
	code, _, body = post(t, ts.URL+"/v1/solve", `{"arch":3,"conversations":1,"server_compute_us":570}`)
	if code != http.StatusOK || !bytes.Equal(body, canned) {
		t.Fatalf("cluster-served: %d %q, want the canned bytes", code, body)
	}

	var doc struct {
		Serving struct {
			ClusterServed int64 `json:"cluster_served"`
			Leaders       int64 `json:"leaders"`
		} `json:"serving"`
		Cluster map[string]any `json:"cluster"`
	}
	if err := json.Unmarshal(s.MetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Serving.ClusterServed != 1 || doc.Serving.Leaders != 1 {
		t.Fatalf("cluster_served=%d leaders=%d, want 1/1", doc.Serving.ClusterServed, doc.Serving.Leaders)
	}
	if doc.Cluster == nil || doc.Cluster["fake"] != true {
		t.Fatalf("metrics body missing the router snapshot: %v", doc.Cluster)
	}

	// Experiments are registry reads, never cluster-routed.
	if code, body := get(t, ts.URL+"/v1/experiments/T5.1"); code != http.StatusOK {
		t.Fatalf("experiment: %d %s", code, body)
	}
	for _, spec := range fr.routedSpecs() {
		if spec.Route == "experiment" {
			t.Fatalf("experiment read was cluster-routed: %+v", spec)
		}
	}

	// scope=cluster dispatches to the aggregated views.
	if code, body := get(t, ts.URL+"/metrics?scope=cluster"); code != http.StatusOK || !bytes.Equal(bytes.TrimSpace(body), []byte(`{"aggregated":"metrics"}`)) {
		t.Fatalf("metrics scope=cluster: %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/metrics/history?scope=cluster"); code != http.StatusOK || !bytes.Equal(bytes.TrimSpace(body), []byte(`{"aggregated":"history"}`)) {
		t.Fatalf("history scope=cluster: %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/debug/health?scope=cluster"); code != http.StatusOK || !bytes.Equal(bytes.TrimSpace(body), []byte(`{"aggregated":"health"}`)) {
		t.Fatalf("health scope=cluster: %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/debug/events?scope=cluster"); code != http.StatusOK || !bytes.Equal(bytes.TrimSpace(body), []byte(`{"aggregated":"events"}`)) {
		t.Fatalf("events scope=cluster: %d %q", code, body)
	}

	// The healthz body echoes the router's membership epoch.
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || !bytes.Contains(body, []byte(`"epoch":42`)) {
		t.Fatalf("healthz with cluster: %d %s, want epoch 42", code, body)
	}
}
