package service

import (
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// promWriter accumulates exposition lines with a sticky error, so the
// render code reads as straight-line output. om selects the OpenMetrics
// dialect: counter families are declared without the _total suffix,
// histogram buckets carry exemplars, and the body ends with # EOF.
type promWriter struct {
	w   io.Writer
	om  bool
	err error
}

func (p *promWriter) line(s string) {
	if p.err != nil {
		return
	}
	_, p.err = io.WriteString(p.w, s+"\n")
}

// typeLine declares a family. OpenMetrics names a counter family
// without the _total suffix its samples carry; the legacy 0.0.4 format
// uses the sample name throughout.
func (p *promWriter) typeLine(name, kind string) {
	if p.om && kind == "counter" {
		name = strings.TrimSuffix(name, "_total")
	}
	p.line("# TYPE " + name + " " + kind)
}

func promFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// WritePrometheus renders the daemon's counters — the same data GET
// /metrics reports as JSON — in the Prometheus text exposition format
// (version 0.0.4). The output is a pure function of the counter values:
// families appear in a fixed order and route labels are sorted, so two
// snapshots of an unchanged server are byte-identical. Exemplars are
// not emitted: the legacy text parser rejects them, so they belong to
// WriteOpenMetrics only.
func (s *Server) WritePrometheus(w io.Writer) error {
	return s.writeExposition(w, false)
}

// WriteOpenMetrics renders the same snapshot in the OpenMetrics text
// format (the dialect a scraper negotiates with
// Accept: application/openmetrics-text): counter families drop the
// _total suffix in their TYPE declarations, histogram buckets carry the
// request-ID exemplars, and the body terminates with # EOF. Equally
// deterministic: byte-identical for an unchanged server.
func (s *Server) WriteOpenMetrics(w io.Writer) error {
	return s.writeExposition(w, true)
}

func (s *Server) writeExposition(w io.Writer, om bool) error {
	snap := s.snapshot()
	routes := make([]string, 0, len(snap.byRoute))
	for r := range snap.byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)

	p := &promWriter{w: w, om: om}
	for i := range scalars {
		name := scalars[i].promName()
		if i > 0 && scalars[i-1].key == "requests_total" {
			// The per-route breakdown follows the request total.
			p.typeLine("ipcd_route_requests_total", "counter")
			for _, r := range routes {
				p.line(`ipcd_route_requests_total{route="` + r + `"} ` + strconv.FormatInt(snap.byRoute[r], 10))
			}
		}
		p.typeLine(name, scalars[i].kind)
		p.line(name + " " + strconv.FormatInt(scalars[i].read(&snap.src), 10))
	}

	// SLO burn rates: per-objective, per-window gauges. The values are
	// rolling-window aggregates, not monotonic counters, so every family
	// is a gauge; objectives come out of the tracker in name order, so
	// the exposition stays byte-stable for an unchanged server.
	if slos := s.slo.Snapshot(); len(slos) > 0 {
		p.typeLine("ipcd_slo_target_ppm", "gauge")
		for _, o := range slos {
			p.line(`ipcd_slo_target_ppm{objective="` + o.Name + `"} ` + strconv.FormatInt(o.TargetPPM, 10))
		}
		p.typeLine("ipcd_slo_latency_bound_us", "gauge")
		for _, o := range slos {
			p.line(`ipcd_slo_latency_bound_us{objective="` + o.Name + `"} ` + strconv.FormatInt(o.LatencyUS, 10))
		}
		sloWindowGauge := func(name string, value func(w obs.WindowSnapshot) int64) {
			p.typeLine(name, "gauge")
			for _, o := range slos {
				for _, w := range o.Windows {
					p.line(name + `{objective="` + o.Name + `",window="` + w.Window + `"} ` +
						strconv.FormatInt(value(w), 10))
				}
			}
		}
		sloWindowGauge("ipcd_slo_window_good", func(w obs.WindowSnapshot) int64 { return w.Good })
		sloWindowGauge("ipcd_slo_window_total", func(w obs.WindowSnapshot) int64 { return w.Total })
		sloWindowGauge("ipcd_slo_burn_milli", func(w obs.WindowSnapshot) int64 { return w.BurnMilli })
		sloWindowGauge("ipcd_slo_breached", func(w obs.WindowSnapshot) int64 {
			if w.Breached {
				return 1
			}
			return 0
		})
	}

	// Per-route latency histograms in the conventional cumulative-bucket
	// encoding; the bounds are package service's fixed microsecond bounds.
	p.line("# TYPE ipcd_request_duration_us histogram")
	for _, r := range routes {
		h := snap.latency[r]
		if h == nil {
			continue
		}
		var cum int64
		for i, c := range h.Counts() {
			cum += c
			le := "+Inf"
			if i < len(histBounds) {
				le = promFloat(histBounds[i])
			}
			line := `ipcd_request_duration_us_bucket{route="` + r + `",le="` + le + `"} ` +
				strconv.FormatInt(cum, 10)
			// OpenMetrics exemplar: the last request that landed in this
			// bucket, linking the distribution back to a concrete
			// trace/log line. The legacy 0.0.4 parser rejects exemplars,
			// so they are rendered only in the OpenMetrics dialect.
			if om && h.exemplars != nil && !h.exemplars[i].id.IsZero() {
				ex := h.exemplars[i]
				line += ` # {request_id="` + ex.id.String() + `"} ` + promFloat(ex.us)
			}
			p.line(line)
		}
		p.line(`ipcd_request_duration_us_sum{route="` + r + `"} ` + promFloat(h.Sum()))
		p.line(`ipcd_request_duration_us_count{route="` + r + `"} ` + strconv.FormatInt(h.Count(), 10))
	}
	if om {
		p.line("# EOF")
	}
	return p.err
}
