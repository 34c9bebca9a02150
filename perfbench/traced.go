package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gtpn"
	"repro/internal/models"
	"repro/internal/service"
	"repro/internal/timing"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ Name, Unit, Better string }

// layerMetrics lists every per-layer metric in the order BENCHMARK.json
// gives them. Each traced run reports all of them; a layer the
// workload does not exercise reports 0.
func layerMetrics() []layerMetric {
	out := []layerMetric{
		{"service.roundtrip_us", "us", "lower"},
		{"service.handler_us", "us", "lower"},
		{"service.net_us", "us", "lower"},
		{"service.respcache_hit_ratio", "ratio", "higher"},
		{"service.refused", "count", "lower"},
		{"service.leaders", "count", "lower"},
		{"service.key_us", "us", "lower"},
		{"models.build_us", "us", "lower"},
		{"gtpn.signature_us", "us", "lower"},
		{"core.analyze_ms", "ms", "lower"},
		{"models.local_solve_ms", "ms", "lower"},
		{"models.nonlocal_ms", "ms", "lower"},
		{"models.fixed_point_iters", "count", "lower"},
		{"gtpn.graphs_built", "count", "lower"},
		{"gtpn.states", "count", "lower"},
		{"gtpn.edges", "count", "lower"},
		{"gtpn.gs_sweeps", "count", "lower"},
		{"gtpn.warm_starts", "count", "higher"},
		{"gtpn.graphs_reused", "count", "higher"},
		{"gtpn.cache_hit_ratio", "ratio", "higher"},
		{"gtpn.cache_entries", "count", "lower"},
	}
	for _, e := range experiments.All() {
		out = append(out, layerMetric{"experiments." + e.ID + "_ms", "ms", "lower"})
	}
	return append(out,
		layerMetric{"loadgen.late_us", "us", "lower"},
		layerMetric{"trace.overhead_us", "us", "lower"},
		layerMetric{"ledger.residual_pct", "%", "lower"},
		layerMetric{"ledger.unattributed_pct", "%", "lower"},
		layerMetric{"ledger.crosscheck_pct", "%", "lower"},
	)
}

// layers accumulates a traced run's per-layer metrics.
type layers map[string]float64

// report writes every per-layer metric into res, 0 for those unset.
func (l layers) report(res *result) error {
	for _, m := range layerMetrics() {
		res.metric(m.Name, l[m.Name], m.Unit)
	}
	for name := range l {
		if _, ok := res.metrics[name]; !ok {
			return fmt.Errorf("layer metric %s is not listed", name)
		}
	}
	return nil
}

// engineDelta records the solver-engine and solve-cache work between
// two snapshots.
func (l layers) engineDelta(e0, e1 gtpn.EngineStats, c0, c1 gtpn.CacheStats) {
	l["gtpn.graphs_built"] = float64(e1.GraphsBuilt - e0.GraphsBuilt)
	l["gtpn.states"] = float64(e1.StatesExplored - e0.StatesExplored)
	l["gtpn.edges"] = float64(e1.EdgesBuilt - e0.EdgesBuilt)
	l["gtpn.gs_sweeps"] = float64(e1.StationarySweeps - e0.StationarySweeps)
	l["gtpn.warm_starts"] = float64(e1.WarmStarts - e0.WarmStarts)
	l["gtpn.graphs_reused"] = float64(e1.GraphsReused - e0.GraphsReused)
	if n := (c1.Hits - c0.Hits) + (c1.Misses - c0.Misses); n > 0 {
		l["gtpn.cache_hit_ratio"] = float64(c1.Hits-c0.Hits) / float64(n)
	}
	l["gtpn.cache_entries"] = float64(c1.Entries)
}

func tracePath(o opts) string {
	return filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}

// finishLedger reconciles the spans, writes the trace file and records
// the reconciliation.
func finishLedger(res *result, l layers, led *ledger, o opts, glue map[string]bool) error {
	rc, err := reconcile(led.spans, glue)
	l["ledger.residual_pct"] = rc.ResidualPct
	l["ledger.unattributed_pct"] = rc.UnattributedPct
	if err != nil {
		return err
	}
	path := tracePath(o)
	if err := led.write(path); err != nil {
		return err
	}
	res.logf("ledger: %d requests reconcile within %g%% (residual %.4f%%, unattributed %.4f%%); %d spans written to %s",
		rc.Roots, residualTolPct, rc.ResidualPct, rc.UnattributedPct, len(led.spans), path)
	return l.report(res)
}

// tracePaper runs the registry in process, one span per experiment
// under a span per pass, with the solve cache and engine counters reset
// before every pass so each pays what a fresh ipcmodel process pays.
func tracePaper(ctx context.Context, o opts) (*result, error) {
	res := newResult()
	want, err := goldenStream(o.root)
	if err != nil {
		return nil, err
	}
	led := newLedger()
	l := layers{}
	cfg := experiments.Config{Quick: true, Parallelism: 1}
	budget := time.Duration(o.seconds * float64(time.Second))
	t0 := time.Now()
	var passes []float64
	for len(passes) == 0 || time.Since(t0)+time.Duration(median(passes)*float64(time.Second)) <= budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		core.ResetSolveCache()
		core.ResetSolverEngine()
		e0, c0 := gtpn.SolverEngineStats(), gtpn.SolveCacheStats()
		var out bytes.Buffer
		var runErr error
		pass := led.reserve(1)
		start := led.now()
		for _, e := range experiments.All() {
			fmt.Fprintf(&out, "==== %s — %s ====\n", e.ID, e.Title)
			led.call("experiments."+e.ID, pass, "paper", func() { runErr = e.Run(&out, cfg) })
			if runErr != nil {
				break
			}
			fmt.Fprintln(&out)
		}
		led.add(span{Name: "paper.pass", ID: pass, Parent: -1, Lane: "paper", Start: start, End: led.now()})
		res.attempted++
		if runErr != nil {
			res.failed++
			return res, runErr
		}
		if !bytes.Equal(out.Bytes(), want) {
			res.failed++
			return res, fmt.Errorf("in-process pass deviates from the golden snapshots\n%s", firstDiff(want, out.Bytes()))
		}
		l.engineDelta(e0, gtpn.SolverEngineStats(), c0, gtpn.SolveCacheStats())
		passes = append(passes, float64(led.now()-start)/1e9)
	}
	self := selfTimes(led.spans)
	for _, e := range experiments.All() {
		name := "experiments." + e.ID
		l[name+"_ms"] = median(selfByName(led.spans, self, name)) / 1e3
	}
	res.logf("%d in-process passes %v s", len(passes), passes)
	if err := finishLedger(res, l, led, o, map[string]bool{"paper.pass": true}); err != nil {
		return res, err
	}
	return res, nil
}

// inProcess is a service.Server configured as ipcd configures it by
// default, on a loopback listener, with a handler wrapper that records
// a span around Server.Handler().ServeHTTP for numbered requests.
type inProcess struct {
	srv     *service.Server
	hs      *http.Server
	base    string
	tracing atomic.Bool
	served  chan error
}

func startInProcess(led *ledger) (*inProcess, error) {
	p := &inProcess{srv: service.New(service.Config{
		QueueDepth:     64,
		RequestTimeout: 2 * time.Minute,
		AccessLog:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	}), served: make(chan error, 1)}
	h := p.srv.Handler()
	p.hs = &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil || !p.tracing.Load() {
			h.ServeHTTP(w, r)
			return
		}
		led.call("service.handler", seq, "server", func() { h.ServeHTTP(w, r) })
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.base = "http://" + ln.Addr().String()
	go func() { p.served <- p.hs.Serve(ln) }()
	return p, nil
}

func (p *inProcess) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p.srv.BeginDrain()
	err := p.hs.Shutdown(ctx)
	if serr := <-p.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func (p *inProcess) metrics() (serveMetrics, error) {
	var m serveMetrics
	return m, json.Unmarshal(p.srv.MetricsJSON(), &m)
}

// traceServe drives an in-process server with the workload's traffic
// at its fixed rate, tracing every other request, then replays fresh
// points through each layer's public call.
func traceServe(ctx context.Context, o opts, spec serveSpec) (*result, error) {
	res := newResult()
	led := newLedger()
	l := layers{}
	core.ResetSolveCache()
	core.ResetSolverEngine()
	p, err := startInProcess(led)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	tr := newTraffic(o.seed)
	c := newClient(p.base, connections())
	defer c.close()
	budget := time.Duration(o.seconds * float64(time.Second))

	// One fixed-rate phase; even requests are traced, odd ones are not,
	// so both halves see the same load and the same mix of points and
	// the difference of their medians is the tracing overhead.
	due := poissonSchedule(tr.rng, spec.Rate, arrivals(spec.Rate, budget/2))
	pts := tr.space.take(len(due))
	base := led.reserve(len(due))
	seq := func(i int) int {
		if i%2 == 1 {
			return -1
		}
		return base + i
	}
	m0, err := p.metrics()
	if err != nil {
		return nil, err
	}
	e0, c0 := gtpn.SolverEngineStats(), gtpn.SolveCacheStats()
	p.tracing.Store(true)
	ph, _ := tr.run(ctx, c, pts, due, seq)
	p.tracing.Store(false)
	l.engineDelta(e0, gtpn.SolverEngineStats(), c0, gtpn.SolveCacheStats())
	res.attempted += len(ph.Shots)
	res.failed += ph.failures()
	if err := firstErr(ph); err != nil {
		return res, err
	}
	lat, err := ph.latency()
	if err != nil {
		return nil, err
	}
	late, err := ph.lateness()
	if err != nil {
		return nil, err
	}
	if err := checkLateness(late, lat); err != nil {
		return res, err
	}
	m1, err := p.metrics()
	if err != nil {
		return nil, err
	}
	hits := m1.RespCache.Hits - m0.RespCache.Hits
	if n := hits + m1.RespCache.Misses - m0.RespCache.Misses; n > 0 {
		l["service.respcache_hit_ratio"] = float64(hits) / float64(n)
	}
	l["service.refused"] = float64(m1.Serving.RejectedBusy + m1.Serving.RejectedDrain - m0.Serving.RejectedBusy - m0.Serving.RejectedDrain)
	l["service.leaders"] = float64(m1.Serving.Leaders - m0.Serving.Leaders)
	l["loadgen.late_us"] = late.P50

	// Round trips: the client's span from send to last byte, with the
	// server's handler span inside it.
	var traced, plain, rts []float64
	for i, s := range ph.Shots {
		us := float64(s.Latency()) / 1e3
		if seq(i) < 0 {
			plain = append(plain, us)
			continue
		}
		traced = append(traced, us)
		sp := span{Name: "service.roundtrip", ID: seq(i), Parent: -1, Lane: "client",
			Start: led.at(ph.Start.Add(s.Sent)), End: led.at(ph.Start.Add(s.Done))}
		led.add(sp)
		rts = append(rts, float64(sp.dur())/1e3)
	}
	l["trace.overhead_us"] = median(traced) - median(plain)
	self := selfTimes(led.spans)
	l["service.roundtrip_us"] = median(rts)
	l["service.handler_us"] = median(selfByName(led.spans, self, "service.handler"))
	l["service.net_us"] = median(selfByName(led.spans, self, "service.roundtrip"))
	res.logf("fixed rate %.0f/s: %d requests, untraced p50 %.1fus, traced p50 %.1fus",
		spec.Rate, len(ph.Shots), median(plain), median(traced))

	if err := replay(ctx, res, l, led, tr, budget*2/5); err != nil {
		return res, err
	}
	if err := finishLedger(res, l, led, o, map[string]bool{"replay": true}); err != nil {
		return res, err
	}
	return res, nil
}

// crossCheckTolPct bounds the replay's cross-check: core.analyze and
// the layer calls it is made of, timed separately on the same point,
// must agree within this share at the median over points.
const crossCheckTolPct = 10.0

// replay solves fresh points in process for d, one root span per
// point with a child span around each layer's public call on the miss
// path. The solve cache is reset before each solving call, so every
// call pays for a full solve.
//
// It also holds core.analyze against its parts, the way core.CrossCheck
// holds the model against the simulator: Analyze builds and solves the
// point's net (local) or runs the fixed point (non-local), then solves
// the one-conversation reference net at zero compute time for the
// offered load. The replay times those calls on their own, as
// models.build, models.local_solve or models.nonlocal, and
// core.reference, and their sum must match core.analyze's time on the
// same point within crossCheckTolPct at the median over points. Work
// that Analyze adds or drops, or a layer timed wrongly, shows as a gap;
// a collection or a host stall that lands on one side of a few points
// does not.
func replay(ctx context.Context, res *result, l layers, led *ledger, tr *traffic, d time.Duration) error {
	var iters, nonlocal float64
	var gaps []float64 // per point: (parts - core.analyze) / core.analyze
	t0 := time.Now()
	for n := 0; n == 0 || time.Since(t0) < d; n++ {
		pt := tr.space.next()
		a := timing.Arch(pt.Arch)
		w := core.Workload{Conversations: pt.N, ServerComputeUS: pt.X, NonLocal: pt.NonLocal}
		var err error
		var pred core.Prediction
		var rt float64
		root := led.reserve(1)
		start := led.now()
		core.ResetSolveCache()
		led.call("service.key", root, "replay", func() { _, err = service.SolveKey(pt.Arch, pt.N, pt.Hosts, pt.X, pt.NonLocal) })
		var whole, parts int64
		if err == nil {
			whole = led.call("core.analyze", root, "replay", func() {
				pred, err = core.New(a, core.WithHosts(pt.Hosts)).AnalyzeContext(ctx, w)
			})
		}
		// The parts follow Analyze, so both find the caches as warm.
		core.ResetSolveCache()
		var m *models.LocalModel
		var build int64
		if err == nil && !pt.NonLocal {
			build = led.call("models.build", root, "replay", func() { m = models.BuildLocal(a, pt.N, pt.Hosts, pt.X) })
			led.call("gtpn.signature", root, "replay", func() {
				if _, ok := m.Net.Signature(); !ok {
					err = errors.New("local net is unsigned")
				}
			})
		}
		if err == nil && pt.NonLocal {
			parts += led.call("models.nonlocal", root, "replay", func() {
				var r models.NonLocalResult
				r, err = models.SolveNonLocalContext(ctx, a, pt.N, pt.Hosts, pt.X, models.SolveOptions{})
				rt, iters, nonlocal = r.RoundTrip, iters+float64(r.Iterations), nonlocal+1
			})
		} else if err == nil {
			parts += build + led.call("models.local_solve", root, "replay", func() {
				var r models.LocalResult
				r, err = m.SolveContext(ctx, models.SolveOptions{})
				rt = r.RoundTrip
			})
		}
		if err == nil {
			parts += led.call("core.reference", root, "replay", func() { err = referenceSolve(ctx, a, pt.Hosts, pt.NonLocal) })
			gaps = append(gaps, float64(parts-whole)/float64(whole))
		}
		led.add(span{Name: "replay", ID: root, Parent: -1, Lane: "replay", Start: start, End: led.now()})
		res.attempted++
		if err == nil && rt != pred.RoundTripUS {
			err = fmt.Errorf("layer solve gives round trip %v, core.Analyze %v", rt, pred.RoundTripUS)
		}
		if err != nil {
			res.failed++
			return fmt.Errorf("replay %+v: %w", pt, err)
		}
	}
	self := selfTimes(led.spans)
	ms := func(name string) float64 { return median(selfByName(led.spans, self, name)) / 1e3 }
	l["service.key_us"] = median(selfByName(led.spans, self, "service.key"))
	l["models.build_us"] = median(selfByName(led.spans, self, "models.build"))
	l["gtpn.signature_us"] = median(selfByName(led.spans, self, "gtpn.signature"))
	l["core.analyze_ms"] = ms("core.analyze")
	l["models.local_solve_ms"] = ms("models.local_solve")
	l["models.nonlocal_ms"] = ms("models.nonlocal")
	if nonlocal > 0 {
		l["models.fixed_point_iters"] = iters / nonlocal
	}
	gap, err := crossCheck(gaps)
	l["ledger.crosscheck_pct"] = gap
	res.logf("replay: %d points, core.analyze and its separately timed parts %.2f%% apart at the median (tolerance %g%%)",
		len(gaps), gap, crossCheckTolPct)
	return err
}

// referenceSolve solves what core.Analyze solves for the offered load:
// the one-conversation net at zero server compute time.
func referenceSolve(ctx context.Context, a timing.Arch, hosts int, nonLocal bool) error {
	if nonLocal {
		_, err := models.SolveNonLocalContext(ctx, a, 1, hosts, 0, models.SolveOptions{})
		return err
	}
	_, err := models.BuildLocal(a, 1, hosts, 0).SolveContext(ctx, models.SolveOptions{})
	return err
}

// crossCheck is the median of per-point relative gaps between a call
// and its separately timed parts, as a percentage.
func crossCheck(gaps []float64) (float64, error) {
	if len(gaps) == 0 {
		return 0, errors.New("cross-check timed no calls")
	}
	gap := 100 * math.Abs(median(gaps))
	if gap > crossCheckTolPct {
		return gap, fmt.Errorf("core.analyze and its separately timed parts are %.1f%% apart at the median over %d points (tolerance %g%%)",
			gap, len(gaps), crossCheckTolPct)
	}
	return gap, nil
}
