package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serveSpec fixes one serve workload's traffic.
type serveSpec struct {
	Rate       float64   // fixed offered rate for p50_ms/p99_ms, requests/s
	Ladder     []float64 // candidate rates for max_rps, ascending
	Batch      int       // requests in one closed-loop pass
	StartShare float64   // first ladder probe: the highest rate under this share of the closed-loop rate
	FixedShare float64   // share of --seconds the fixed rate lasts on average
	ProbeShare float64   // share of --seconds spent on each ladder probe
}

// The daemon's default objective: solve p99 under 50ms.
const sloP99 = 50 * time.Millisecond

// coldSpec is the serve-cold workload's traffic.
var coldSpec = serveSpec{Rate: 50, Ladder: geometricLadder(2, 1000, 1.1), Batch: 256, StartShare: 0.5,
	FixedShare: 0.6, ProbeShare: 0.04}

// arrivals is how many requests a phase of length d sends at rate. The
// count depends on --seconds alone, never on the seed, so every run of
// a workload takes its percentiles over the same number of samples.
func arrivals(rate float64, d time.Duration) int {
	return max(1, int(math.Round(rate*d.Seconds())))
}

const (
	setupReps   = 9  // daemon launches per run; setup_s is their median
	rounds      = 10 // closed-loop passes and fixed-rate stretches per run; see quietQuartile
	minProbe    = 2 * time.Second
	sampleCheck = 64 // served bodies per run compared with an in-process solve
)

// daemon is one ipcd process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// freePort reserves and releases a loopback port for the daemon.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches ipcd with default flags on a fresh loopback
// port and returns once /healthz answers 200.
func startDaemon(ctx context.Context, binDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(binDir, "ipcd"), "-addr", addr)
	cmd.Stdout, cmd.Stderr = nil, nil // access records go to the null device
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ipcd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(d.done) }()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return nil, errors.New("ipcd exited before answering /healthz")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, errors.New("ipcd did not answer /healthz within 20s")
}

// stop asks the daemon to drain, kills it if it lingers, and waits for
// it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// vmHWM reads the daemon's peak resident set so far, in MiB.
func (d *daemon) vmHWM() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serveMetrics is the part of ipcd's /metrics JSON the benchmark reads.
type serveMetrics struct {
	RespCache struct {
		Hits, Misses int64
	} `json:"resp_cache"`
	Serving struct {
		Leaders       int64 `json:"leaders"`
		RejectedBusy  int64 `json:"rejected_busy"`
		RejectedDrain int64 `json:"rejected_draining"`
	} `json:"serving"`
}

func scrape(ctx context.Context, c *client) (serveMetrics, error) {
	var m serveMetrics
	b, err := c.get(ctx, "/metrics")
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// traffic draws a serve workload's requests from its seed, every one a
// fresh point that no cache has seen, and checks that every response
// answers its request.
type traffic struct {
	rng   *rand.Rand
	space *pointSpace
}

func newTraffic(seed uint64) *traffic {
	return &traffic{rng: rand.New(rand.NewPCG(seed, 0x87)), space: newPointSpace(seed)}
}

// verify checks a 2xx body against the point's own parameters.
func (t *traffic) verify(p point, status int, body []byte) error {
	if err := statusOK(status, body); err != nil {
		return err
	}
	return echoes(p, body)
}

// noSeq leaves a request unnumbered: only traced runs number them.
func noSeq(int) int { return -1 }

// echoes checks that a solve body names the point that was asked for.
func echoes(p point, body []byte) error {
	var got struct {
		Arch          int     `json:"arch"`
		Conversations int     `json:"conversations"`
		Hosts         int     `json:"hosts"`
		NonLocal      bool    `json:"non_local"`
		X             float64 `json:"server_compute_us"`
		States        int     `json:"states"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	if got.Arch != p.Arch || got.Conversations != p.N || got.Hosts != p.Hosts || got.NonLocal != p.NonLocal || got.X != p.X || got.States <= 0 {
		return fmt.Errorf("body %q does not answer %+v", body, p)
	}
	return nil
}

// sampleBodies compares served bodies with an in-process solve of the
// same point, for a seeded sample of at most k of them, and reports how
// many differ.
func sampleBodies(rng *rand.Rand, pts []point, bodies [][]byte, k int) (int, error) {
	idx := rng.Perm(len(pts))
	if len(idx) > k {
		idx = idx[:k]
	}
	bad := 0
	var first error
	for _, i := range idx {
		want, err := pts[i].expected()
		if err != nil {
			return bad, fmt.Errorf("in-process solve of %+v: %w", pts[i], err)
		}
		if !bytes.Equal(want, bodies[i]) {
			bad++
			if first == nil {
				first = fmt.Errorf("served %+v as %q, in-process solve gives %q", pts[i], bodies[i], want)
			}
		}
	}
	return bad, first
}

// run sends pts open-loop at the due offsets, or closed-loop when due
// is nil, keeping each 2xx body.
func (t *traffic) run(ctx context.Context, c *client, pts []point, due []time.Duration, seq func(int) int) (phase, [][]byte) {
	bodies := make([][]byte, len(pts))
	bodyOf := func(i int) []byte { return pts[i].body() }
	chk := func(i, status int, b []byte) error {
		if err := t.verify(pts[i], status, b); err != nil {
			return err
		}
		bodies[i] = b
		return nil
	}
	if due == nil {
		return closedLoop(ctx, c, len(pts), bodyOf, chk), bodies
	}
	return openLoop(ctx, c, due, bodyOf, seq, chk), bodies
}

func firstErr(ph phase) error {
	for _, s := range ph.Shots {
		if s.Err != nil {
			return s.Err
		}
	}
	return nil
}

// rung judges one ladder rate: every request must succeed, the p99
// latency from due time must meet the objective, the backlog must not
// grow (the last tenth of the requests must also meet it at their
// median), and the generator must keep its schedule.
func rung(ph phase) probe {
	if n := ph.failures(); n > 0 {
		return probe{Why: fmt.Sprintf("%d failed: %v", n, firstErr(ph))}
	}
	lat, err := ph.latency()
	if err != nil {
		return probe{Why: err.Error()}
	}
	// The objective is a p99 whatever the sample count.
	p := probe{Lat: lat.sorted, P99: lat.at(99)}
	limit := float64(sloP99 / time.Microsecond)
	last := micros(shot.Latency, ph.Shots[len(ph.Shots)*9/10:])
	late, err := ph.lateness()
	switch {
	case p.P99 > limit:
		p.Why = fmt.Sprintf("p99 %.1fms over %v", p.P99/1000, sloP99)
	case median(last) > limit:
		p.Why = fmt.Sprintf("backlog grew: the last tenth waited %.1fms at the median", median(last)/1000)
	case err != nil:
		p.Why = err.Error()
	case checkLateness(late, lat) != nil:
		p.Why = checkLateness(late, lat).Error()
	default:
		p.Pass, p.Why = true, fmt.Sprintf("p99 %.1fms", p.P99/1000)
	}
	return p
}

// runServe is the untraced serve workload against a real ipcd.
func runServe(ctx context.Context, o opts, spec serveSpec) (*result, error) {
	res := newResult()
	tr := newTraffic(o.seed)
	conns := connections()
	// Here the benchmark process is only the load generator, which
	// allocates per request; collecting less often keeps its own pauses
	// out of the latencies it measures.
	debug.SetGCPercent(400)

	// Set-up: launch a fresh daemon several times. The last one is
	// measured.
	var d *daemon
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		nd, err := startDaemon(ctx, o.binDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			nd.stop()
		} else {
			d = nd
		}
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	c := newClient(d.base, conns)
	defer c.close()
	before, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	var allPts []point
	var allBodies [][]byte
	keep := func(pts []point, bodies [][]byte) {
		allPts = append(allPts, pts...)
		allBodies = append(allBodies, bodies...)
	}
	count := func(ph phase) {
		res.attempted += len(ph.Shots)
		res.failed += ph.failures()
	}

	// Rounds: a closed-loop pass, the batch as fast as the connections
	// allow, then a stretch at the fixed offered rate. Interleaving the
	// two spreads both over the run, and pass_s and p50_ms take the quiet
	// quartile of their round figures, so a spell of host contention that
	// leaves three rounds in ten alone decides neither.
	fixed := time.Duration(spec.FixedShare * float64(budget)) // the fixed rate's mean total length
	var passes, p50s []float64
	var fixedShots []shot
	for r := 0; r < rounds; r++ {
		pts := tr.space.take(spec.Batch)
		ph, bodies := tr.run(ctx, c, pts, nil, nil)
		count(ph)
		if err := firstErr(ph); err != nil {
			return res, fmt.Errorf("pass: %w", err)
		}
		keep(pts, bodies)
		passes = append(passes, ph.Wall.Seconds())

		due := poissonSchedule(tr.rng, spec.Rate, arrivals(spec.Rate, fixed/rounds))
		pts = tr.space.take(len(due))
		ph, bodies = tr.run(ctx, c, pts, due, noSeq)
		count(ph)
		if err := firstErr(ph); err != nil {
			return res, fmt.Errorf("fixed rate %.0f/s: %w", spec.Rate, err)
		}
		keep(pts, bodies)
		lat, err := ph.latency()
		if err != nil {
			return nil, err
		}
		p50s = append(p50s, lat.P50)
		fixedShots = append(fixedShots, ph.Shots...)
	}
	pass := quietQuartile(passes)
	fixedAll := phase{Shots: fixedShots}
	lat, err := fixedAll.latency()
	if err != nil {
		return nil, err
	}
	late, err := fixedAll.lateness()
	if err != nil {
		return nil, err
	}
	if err := checkLateness(late, lat); err != nil {
		return nil, fmt.Errorf("fixed rate %.0f/s invalid: %w", spec.Rate, err)
	}
	// Peak memory is read before the ladder, whose request count
	// depends on where the search starts and stops.
	rss, err := d.vmHWM()
	if err != nil {
		return nil, err
	}

	// Ladder: start below the closed-loop capacity and walk to the
	// boundary of the objective.
	probeLen := max(minProbe, time.Duration(spec.ProbeShare*float64(budget)))
	maxProbes := int((budget - fixed - time.Duration(pass*rounds*float64(time.Second))) / probeLen)
	capacity := float64(spec.Batch) / pass
	start := 0
	for i, r := range spec.Ladder {
		if r <= spec.StartShare*capacity {
			start = i
		}
	}
	limit := float64(sloP99 / time.Microsecond)
	_, probes := climbLadder(spec.Ladder, start, max(maxProbes, 6), limit, func(rate float64) probe {
		due := poissonSchedule(tr.rng, rate, arrivals(rate, probeLen))
		pts := tr.space.take(len(due))
		ph, bodies := tr.run(ctx, c, pts, due, noSeq)
		count(ph)
		keep(pts, bodies)
		return rung(ph)
	})
	for _, p := range probes {
		res.logf("ladder %8.0f/s  pass=%-5t %s", p.Rate, p.Pass, p.Why)
	}
	maxRPS := crossing(probes, limit)
	if maxRPS == 0 {
		res.logf("no probed ladder rate meets p99 <= %v", sloP99)
	}
	if res.failed > 0 {
		return res, fmt.Errorf("%d of %d requests failed", res.failed, res.attempted)
	}

	after, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	if hits := after.RespCache.Hits - before.RespCache.Hits; hits != 0 {
		return res, fmt.Errorf("%d requests of fresh points hit the response cache", hits)
	}
	if bad, err := sampleBodies(tr.rng, allPts, allBodies, sampleCheck); err != nil {
		res.failed += bad
		return res, err
	}
	c.close()
	d.stop()
	d = nil

	res.metric("setup_s", median(setups), "s")
	res.metric("pass_s", pass, "s")
	res.metric("p50_ms", quietQuartile(p50s)/1000, "ms")
	res.info("p99_ms", lat.Tail/1000, "ms")
	res.info("max_rps", maxRPS, "1/s")
	res.metric("peak_rss_mb", rss, "MiB")
	res.logf("fixed rate %.0f/s: p50 per round %.0f us, quiet quartile %.3fms", spec.Rate, p50s, quietQuartile(p50s)/1000)
	res.logf("fixed rate %.0f/s: %d requests, pooled p50 %.3fms, p%g %.3fms (reported as p99_ms), max %.3fms, late p50 %.1fus p%g %.1fus",
		spec.Rate, lat.N, lat.P50/1000, lat.TailP, lat.Tail/1000, lat.Max/1000, late.P50, late.TailP, late.Tail)
	res.logf("fixed rate latency ms: p90 %.3f p95 %.3f p98 %.3f p99 %.3f p99.9 %.3f",
		lat.at(90)/1000, lat.at(95)/1000, lat.at(98)/1000, lat.at(99)/1000, lat.at(99.9)/1000)
	res.logf("closed-loop passes of %d: %.3f s, quiet quartile %.3fs (%.0f/s)", spec.Batch, passes, pass, capacity)
	return res, nil
}
