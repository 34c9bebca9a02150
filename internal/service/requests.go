package service

import (
	"log/slog"
	"net/http"
	"strconv"
)

// Request identity and the recent-request ring. Every request gets an
// ID at ingress — minted from the node's name and a per-node sequence,
// or inherited verbatim when an upstream cluster node already named it
// (X-Ipcd-Request-Id) — so one logical request keeps one ID across
// every hop it takes through the fleet. The last RecentRequests
// completed requests are retained in a fixed-capacity ring served by
// GET /debug/requests: id, route, coalescing key, status, the routing
// decision that answered it, and the per-phase durations, which is the
// paper's cost-decomposition instinct applied to the serving tier.

// RequestID names one request for cross-node observability. The zero
// value renders as "" (no ID assigned).
type RequestID struct {
	Node string // minting node's name (empty when inherited)
	Seq  int64  // per-node sequence number
	Obs  bool   // minted on an observability route (separate sequence)
	Raw  string // inherited verbatim from X-Ipcd-Request-Id
}

// String renders the ID: the inherited form verbatim, or
// "<node>-<seq>" ("<node>-o<seq>" for observability routes — health
// polls and scrapes draw from their own sequence so the compute-route
// numbering stays reproducible run to run).
func (id RequestID) String() string {
	if id.Raw != "" {
		return id.Raw
	}
	if id.Node == "" {
		return ""
	}
	if id.Obs {
		return id.Node + "-o" + strconv.FormatInt(id.Seq, 10)
	}
	return id.Node + "-" + strconv.FormatInt(id.Seq, 10)
}

// IsZero reports whether no ID was assigned.
func (id RequestID) IsZero() bool { return id == RequestID{} }

// decision classifies how a request was ultimately answered.
type decision uint8

const (
	decisionNone           decision = iota
	decisionRespCacheHit            // preencoded-response cache fast path
	decisionFlightFollower          // coalesced onto another request's flight
	decisionForwarded               // served by the key's owning peer
	decisionReplicaHit              // served from the local replica cache
	decisionHopCappedLocal          // unowned key computed locally: hop budget spent
	decisionLocalCompute            // computed locally by this request's leader
)

// Decision names, as rendered in /debug/requests and access logs and
// carried in RoutedResult.Decision by the cluster tier.
const (
	DecisionRespCacheHit   = "resp_cache_hit"
	DecisionFlightFollower = "flight_follower"
	DecisionForwarded      = "forwarded"
	DecisionReplicaHit     = "replica_hit"
	DecisionHopCappedLocal = "hop_capped_local"
	DecisionLocalCompute   = "local_compute"
)

var decisionNames = [...]string{
	"", DecisionRespCacheHit, DecisionFlightFollower, DecisionForwarded,
	DecisionReplicaHit, DecisionHopCappedLocal, DecisionLocalCompute,
}

func decisionFromName(name string) decision {
	for i := 1; i < len(decisionNames); i++ {
		if decisionNames[i] == name {
			return decision(i)
		}
	}
	return decisionNone
}

// requestRecord is one request's observability row. It is embedded by
// value in the pooled statusWriter and copied by value into the ring,
// so filling it never allocates on the untraced fast path; the strings
// it holds (route literals, cache keys, node names) are shared, not
// copied.
type requestRecord struct {
	id        RequestID
	route     string
	key       string
	decision  decision
	status    int
	hops      int
	unixMS    int64
	decodeUS  int64
	waitUS    int64
	routeUS   int64
	computeUS int64
	totalUS   int64
}

// setDecision records how the request was answered (decisionNone is
// ignored).
func (rec *requestRecord) setDecision(d decision) {
	if d != decisionNone {
		rec.decision = d
	}
}

// defaultDecision sets d only when no earlier stage decided — the
// leader's local compute must not overwrite a hop-cap classification.
func (rec *requestRecord) defaultDecision(d decision) {
	if rec.decision == decisionNone {
		rec.decision = d
	}
}

// attrs lists the record's fields in access-log order; /debug/requests
// renders the same fields plus unix_ms.
func (rec *requestRecord) attrs() []slog.Attr {
	return []slog.Attr{
		slog.String("id", rec.id.String()),
		slog.String("route", rec.route),
		slog.Int("status", rec.status),
		slog.String("decision", decisionNames[rec.decision]),
		slog.Int("hops", rec.hops),
		slog.String("key", rec.key),
		slog.Int64("decode_us", rec.decodeUS),
		slog.Int64("wait_us", rec.waitUS),
		slog.Int64("route_us", rec.routeUS),
		slog.Int64("compute_us", rec.computeUS),
		slog.Int64("total_us", rec.totalUS),
	}
}

// recordOf reaches the instrumentation's per-request record through the
// handler's ResponseWriter. Handlers always run behind instrument in
// production, so the assertion succeeds; a bare writer (a test driving
// a handler directly) gets a scratch record nobody reads.
func recordOf(w http.ResponseWriter) *requestRecord {
	if sw, ok := w.(*statusWriter); ok {
		return &sw.rec
	}
	return new(requestRecord)
}

// RequestsJSON renders this node's own /debug/requests body — the local
// scope. The cluster tier calls it for the self entry of an aggregated
// view.
func (s *Server) RequestsJSON() []byte {
	m := s.metrics
	m.mu.Lock()
	recs := m.requests.Items()
	capacity := m.requests.Cap()
	m.mu.Unlock()
	list := make([]any, 0, len(recs))
	for i := range recs {
		row := map[string]any{"unix_ms": recs[i].unixMS}
		for _, a := range recs[i].attrs() {
			row[a.Key] = a.Value.Any()
		}
		list = append(list, row)
	}
	return marshalDet(map[string]any{
		"capacity": int64(capacity),
		"requests": list,
	})
}
