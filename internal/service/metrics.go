package service

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/gtpn"
	"repro/internal/obs"
)

// metrics is the daemon's serving state for GET /metrics and its
// timelines: the serving counters, per-route request counts and latency
// histograms, the recent-request ring and the sampled history. One
// mutex guards all of it — touched a handful of times per request, far
// off the solve path — and finishing a request (counters, latency, ring
// row) takes it once.
type metrics struct {
	mu       sync.Mutex
	counts   [numCounters]int64
	byRoute  map[string]int64      // accepted requests per route
	latency  map[string]*Histogram // per-route request latency
	requests *obs.Ring[requestRecord]
	history  *obs.Ring[sample]
}

// counter indexes the serving counters.
type counter int

const (
	cRequestsTotal    counter = iota // every request reaching the mux
	cInFlight                        // requests currently being served
	cCoalesced                       // requests served from another request's flight
	cClusterServed                   // requests answered by the cluster tier (forward or replica hit)
	cLeaders                         // underlying computations performed
	cRejectedBusy                    // 429: admission queue full
	cRejectedDraining                // 503: refused while draining
	cRejectedHops                    // 508: forwarding hop limit exceeded
	cErrors                          // 4xx/5xx other than the refusals above
	numCounters
)

// scalar is one row of the metrics table: an unlabelled family whose
// JSON home is doc[section][key]. Its Prometheus name and cluster
// totals key derive from those two (flatName); its /metrics/history key
// is explicit because the gtpn cache counters trend as "cache_*".
type scalar struct {
	section, key string
	kind         string // Prometheus type: "counter" or "gauge"
	history      string // /metrics/history key; "" when not sampled
	total        bool   // summed into the cluster aggregate's "totals"
	read         func(*sources) int64
}

const (
	summed  = true
	perNode = false
)

// scalars is the metrics table, in Prometheus exposition order. Every
// renderer — the /metrics JSON, the Prometheus and OpenMetrics
// expositions, the history samples and the cluster totals — walks it, so
// adding a serving metric is one row here plus its increment site.
var scalars = [...]scalar{
	{"serving", "requests_total", "counter", "requests_total", summed, count(cRequestsTotal)},
	{"serving", "in_flight", "gauge", "in_flight", summed, count(cInFlight)},
	{"serving", "queue_depth", "gauge", "queue_depth", perNode, func(v *sources) int64 { return v.queueDepth }},
	{"serving", "coalesced", "counter", "coalesced", summed, count(cCoalesced)},
	{"serving", "cluster_served", "counter", "cluster_served", summed, count(cClusterServed)},
	{"serving", "leaders", "counter", "leaders", summed, count(cLeaders)},
	{"serving", "rejected_busy", "counter", "rejected_busy", summed, count(cRejectedBusy)},
	{"serving", "rejected_draining", "counter", "rejected_draining", summed, count(cRejectedDraining)},
	{"serving", "rejected_hops", "counter", "", summed, count(cRejectedHops)},
	{"serving", "errors", "counter", "errors", summed, count(cErrors)},
	{"resp_cache", "hits", "counter", "", summed, func(v *sources) int64 { return v.resp.Hits }},
	{"resp_cache", "misses", "counter", "", summed, func(v *sources) int64 { return v.resp.Misses }},
	{"resp_cache", "evictions", "counter", "", perNode, func(v *sources) int64 { return v.resp.Evictions }},
	{"resp_cache", "stores", "counter", "", perNode, func(v *sources) int64 { return v.resp.Stores }},
	{"resp_cache", "trace_bypass", "counter", "", summed, func(v *sources) int64 { return v.resp.TraceBypass }},
	{"resp_cache", "entries", "gauge", "", perNode, func(v *sources) int64 { return v.resp.Entries }},
	{"resp_cache", "bytes", "gauge", "", perNode, func(v *sources) int64 { return v.resp.Bytes }},
	{"gtpn_cache", "hits", "counter", "cache_hits", summed, func(v *sources) int64 { return int64(v.cache.Hits) }},
	{"gtpn_cache", "misses", "counter", "cache_misses", summed, func(v *sources) int64 { return int64(v.cache.Misses) }},
	{"gtpn_cache", "bypassed", "counter", "", perNode, func(v *sources) int64 { return int64(v.cache.Bypassed) }},
	{"gtpn_cache", "entries", "gauge", "", perNode, func(v *sources) int64 { return int64(v.cache.Entries) }},
	{"gtpn_engine", "graphs_built", "counter", "", perNode, func(v *sources) int64 { return int64(v.engine.GraphsBuilt) }},
	{"gtpn_engine", "states_explored", "counter", "", perNode, func(v *sources) int64 { return int64(v.engine.StatesExplored) }},
	{"gtpn_engine", "edges_built", "counter", "", perNode, func(v *sources) int64 { return int64(v.engine.EdgesBuilt) }},
	{"gtpn_engine", "parallel_class_solves", "counter", "", perNode, func(v *sources) int64 { return int64(v.engine.ParallelClassSolves) }},
	{"gtpn_engine", "graphs_reused", "counter", "", perNode, func(v *sources) int64 { return int64(v.engine.GraphsReused) }},
	{"gtpn_engine", "warm_starts", "counter", "", perNode, func(v *sources) int64 { return int64(v.engine.WarmStarts) }},
	{"gtpn_engine", "stationary_sweeps", "counter", "", perNode, func(v *sources) int64 { return int64(v.engine.StationarySweeps) }},
}

func count(c counter) func(*sources) int64 {
	return func(v *sources) int64 { return v.counts[c] }
}

// flatName is the row's section-qualified name: the key itself for
// serving rows, "<section>_<key>" otherwise. It is the cluster totals
// key and, prefixed, the Prometheus family name.
func (d *scalar) flatName() string {
	if d.section == "serving" {
		return d.key
	}
	return d.section + "_" + d.key
}

// promName is the Prometheus family name; counters carry _total.
func (d *scalar) promName() string {
	name := "ipcd_" + d.flatName()
	if d.kind == "counter" && !strings.HasSuffix(name, "_total") {
		name += "_total"
	}
	return name
}

// sources is one read of everything the table's rows draw from.
type sources struct {
	counts     [numCounters]int64
	queueDepth int64
	resp       RespCacheStats
	cache      gtpn.CacheStats
	engine     gtpn.EngineStats
}

// sample is one /metrics/history point.
type sample struct {
	unixMS int64
	src    sources
}

// snapshot is the one coherent copy every renderer reads: the table's
// sources plus the per-route breakdown.
type snapshot struct {
	src     sources
	byRoute map[string]int64
	latency map[string]*Histogram
}

func newMetrics(historySize, recentRequests int) *metrics {
	return &metrics{
		byRoute:  map[string]int64{},
		latency:  map[string]*Histogram{},
		requests: obs.NewRing[requestRecord](recentRequests),
		history:  obs.NewRing[sample](historySize),
	}
}

// inc adds one to each named counter.
func (m *metrics) inc(cs ...counter) {
	m.mu.Lock()
	for _, c := range cs {
		m.counts[c]++
	}
	m.mu.Unlock()
}

func (m *metrics) requestStart(route string) {
	m.mu.Lock()
	m.counts[cRequestsTotal]++
	m.byRoute[route]++
	m.counts[cInFlight]++
	m.mu.Unlock()
}

// requestEnd accounts one finished request: its latency, its status
// class, and — on compute routes — its row in the recent-request ring.
// It is the one place statuses are classified: a 429 or 508 counts as
// its refusal, any other status >= 400 as an error. (The 503 drain
// refusal never reaches here; instrument counts it.)
func (m *metrics) requestEnd(rec *requestRecord) {
	m.mu.Lock()
	m.counts[cInFlight]--
	h := m.latency[rec.route]
	if h == nil {
		h = NewHistogram().withExemplars()
		m.latency[rec.route] = h
	}
	h.ObserveID(float64(rec.totalUS), rec.id)
	switch {
	case rec.status == http.StatusTooManyRequests:
		m.counts[cRejectedBusy]++
	case rec.status == http.StatusLoopDetected:
		m.counts[cRejectedHops]++
	case rec.status >= 400:
		m.counts[cErrors]++
	}
	if !drainExempt(rec.route) {
		m.requests.Add(*rec)
	}
	m.mu.Unlock()
}

// sources reads everything but the serving counters, which the caller
// copies under the metrics lock. Nothing here takes that lock.
func (s *Server) sources() sources {
	return sources{
		queueDepth: s.queueDepth(),
		resp:       s.respCache.Stats(),
		cache:      gtpn.SolveCacheStats(),
		engine:     gtpn.SolverEngineStats(),
	}
}

// snapshot copies the counters and per-route state under the metrics
// lock; histograms are cloned so rendering never holds it.
func (s *Server) snapshot() snapshot {
	src := s.sources()
	m := s.metrics
	m.mu.Lock()
	src.counts = m.counts
	byRoute := make(map[string]int64, len(m.byRoute))
	for r, n := range m.byRoute {
		byRoute[r] = n
	}
	hists := make(map[string]*Histogram, len(m.latency))
	for r, h := range m.latency {
		hists[r] = h.clone()
	}
	m.mu.Unlock()
	return snapshot{src: src, byRoute: byRoute, latency: hists}
}

// MetricsJSON renders this node's own /metrics body — the local scope:
// one section per table section, with the per-route request counts and
// latency histograms under "serving", plus the SLO state.
func (s *Server) MetricsJSON() []byte {
	snap := s.snapshot()
	body := map[string]any{"slo": s.sloJSON()}
	for i := range scalars {
		d := &scalars[i]
		sec, ok := body[d.section].(map[string]any)
		if !ok {
			sec = map[string]any{}
			body[d.section] = sec
		}
		sec[d.key] = d.read(&snap.src)
	}
	byRoute := make(map[string]any, len(snap.byRoute))
	for r, n := range snap.byRoute {
		byRoute[r] = n
	}
	latency := make(map[string]any, len(snap.latency))
	for r, h := range snap.latency {
		latency[r] = h.Snapshot()
	}
	serving := body["serving"].(map[string]any)
	serving["by_route"] = byRoute
	serving["latency_us"] = latency
	if s.cfg.Cluster != nil {
		body["cluster"] = s.cfg.Cluster.MetricsSnapshot()
	}
	return marshalDet(body)
}

// SumMetrics builds a cluster aggregate's "totals" section from member
// /metrics documents decoded as generic JSON: every summed row of the
// metrics table, added up across members under its flat name.
func SumMetrics(docs []map[string]any) map[string]any {
	totals := map[string]any{}
	for i := range scalars {
		d := &scalars[i]
		if !d.total {
			continue
		}
		var sum float64
		for _, doc := range docs {
			sec, _ := doc[d.section].(map[string]any)
			v, _ := sec[d.key].(float64)
			sum += v
		}
		totals[d.flatName()] = sum
	}
	return totals
}

// SampleMetrics appends one observation of the current values to the
// in-process history ring, timestamped at t. ipcd calls this on a
// ticker; tests call it with fixed times for determinism.
func (s *Server) SampleMetrics(t time.Time) {
	src := s.sources()
	m := s.metrics
	m.mu.Lock()
	src.counts = m.counts
	m.history.Add(sample{unixMS: t.UnixMilli(), src: src})
	m.mu.Unlock()
}

// HistoryJSON renders this node's own /metrics/history body — the
// sampled points, oldest first, each carrying the table's history rows.
func (s *Server) HistoryJSON() []byte {
	m := s.metrics
	m.mu.Lock()
	pts := m.history.Items()
	capacity := m.history.Cap()
	m.mu.Unlock()
	list := make([]any, 0, len(pts))
	for _, p := range pts {
		row := map[string]any{"unix_ms": p.unixMS}
		for i := range scalars {
			if key := scalars[i].history; key != "" {
				row[key] = scalars[i].read(&p.src)
			}
		}
		list = append(list, row)
	}
	return marshalDet(map[string]any{
		"capacity": int64(capacity),
		"points":   list,
	})
}
