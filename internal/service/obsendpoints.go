package service

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// The obs subsystem's serving surface: the timeline endpoints —
// GET /metrics/history, /debug/requests, /debug/health (the peer health
// map the cluster prober maintains) and /debug/events (the structured
// event journal) — and the SLO burn-rate section of GET /metrics. Every
// timeline is drain-exempt and supports ?scope=cluster, merged by the
// cluster tier on the one (unix_ms, node, seq) order (obs.MergeTimeline).

// timeline is an observability endpoint whose cluster scope merges one
// list (listKey) from every member's local body on (unix_ms, node, seq).
type timeline struct {
	route, path, listKey string
	local                func(*Server) []byte
}

// timelines are the four such endpoints: the metrics history, the
// recent-request ring, the peer-health map and the event journal.
var timelines = []timeline{
	{"history", "/metrics/history", "points", (*Server).HistoryJSON},
	{"requests", "/debug/requests", "requests", (*Server).RequestsJSON},
	{"health", "/debug/health", "peers", (*Server).HealthJSON},
	{"events", "/debug/events", "events", (*Server).EventsJSON},
}

// handleTimeline serves this node's own body, or with ?scope=cluster the
// cluster tier's merge of every member's list.
func (s *Server) handleTimeline(tl timeline) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("scope") == "cluster" && s.cfg.Cluster != nil {
			writeDet(w, http.StatusOK, nil, s.cfg.Cluster.AggregateTimeline(r.Context(), tl.path, tl.listKey))
			return
		}
		writeDet(w, http.StatusOK, nil, tl.local(s))
	}
}

// LocalBody renders this node's own body for an aggregatable path —
// /metrics or a timeline — as the self entry of a cluster view; nil for
// any other path.
func (s *Server) LocalBody(path string) []byte {
	if path == "/metrics" {
		return s.MetricsJSON()
	}
	for _, tl := range timelines {
		if tl.path == path {
			return tl.local(s)
		}
	}
	return nil
}

// HealthJSON renders this node's own /debug/health body — the local
// scope. The cluster tier calls it for the self entry of an aggregated
// view. Each peer entry carries unix_ms (its last state transition) so
// the cluster merge orders entries like every other timeline. A
// single node has no peers and answers an empty list, so pollers need
// not care about the deployment shape.
func (s *Server) HealthJSON() []byte {
	peers := []any{}
	var epoch int64
	if s.cfg.Cluster != nil {
		epoch = s.cfg.Cluster.Epoch()
		peers = s.cfg.Cluster.HealthSnapshot()
	}
	return marshalDet(map[string]any{
		"node":  s.cfg.NodeName,
		"epoch": epoch,
		"peers": peers,
	})
}

// EventsJSON renders this node's own /debug/events body — the local
// scope. The cluster tier calls it for the self entry of an aggregated
// view.
func (s *Server) EventsJSON() []byte {
	evs := s.cfg.Journal.Events()
	list := make([]any, 0, len(evs))
	for _, ev := range evs {
		list = append(list, map[string]any{
			"unix_ms": ev.UnixMS,
			"seq":     ev.Seq,
			"type":    ev.Type,
			"subject": ev.Subject,
			"detail":  ev.Detail,
		})
	}
	return marshalDet(map[string]any{
		"node":     s.cfg.NodeName,
		"capacity": int64(s.cfg.Journal.Capacity()),
		"events":   list,
	})
}

// sloJSON renders the SLO tracker's state for the /metrics body: every
// objective's rolling windows with their burn rates. Objectives appear
// in name order (the tracker's own order); an SLO-disabled server
// reports an empty list.
func (s *Server) sloJSON() map[string]any {
	objs := make([]any, 0)
	for _, o := range s.slo.Snapshot() {
		wins := make([]any, 0, len(o.Windows))
		for _, w := range o.Windows {
			wins = append(wins, map[string]any{
				"window":     w.Window,
				"seconds":    int64(w.Seconds),
				"good":       w.Good,
				"total":      w.Total,
				"burn_milli": w.BurnMilli,
				"breached":   w.Breached,
			})
		}
		objs = append(objs, map[string]any{
			"name":       o.Name,
			"route":      o.Route,
			"target_ppm": o.TargetPPM,
			"latency_us": o.LatencyUS,
			"windows":    wins,
		})
	}
	return map[string]any{"objectives": objs}
}

// TickSLO closes the current SLO sample and rolls the windows forward.
// ipcd drives it once per second; tests call it with fixed times.
func (s *Server) TickSLO(t time.Time) { s.slo.Tick(t.UnixMilli()) }

// shedEpisodeGapMS separates load-shedding episodes in the journal: a
// burst of 429s is one operational event, so a new shed record is only
// minted when this long has passed since the previous one.
const shedEpisodeGapMS = 5000

// recordShed journals the start of a load-shedding episode. Runs only
// on the 429 path, so the fast path never pays for it.
func (s *Server) recordShed(route string, nowMS int64) {
	if s.cfg.Journal == nil {
		return
	}
	last := s.lastShedMS.Load()
	if nowMS-last < shedEpisodeGapMS {
		return
	}
	if s.lastShedMS.CompareAndSwap(last, nowMS) {
		s.cfg.Journal.Record(obs.EventShed, route, "load shed: admission queue full")
	}
}
