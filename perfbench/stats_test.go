package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0, 1}, {25, 25}, {99.5, 100},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// The tail reported is the highest listed percentile with at least ten
// samples above it.
func TestTailLevelKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true},
		{999, 98, true},
		{500, 98, true},
		{499, 95, true},
		{200, 95, true},
		{105, 90, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailLevel(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailLevel(%d) = %g,%t, want %g,%t", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(got, tc.n) < minBeyond {
			t.Errorf("tailLevel(%d) = p%g leaves %d above it", tc.n, got, tc.n-rank(got, tc.n))
		}
	}
}

// The paper workload's latency does not depend on how many passes fit
// in a run: five and six passes of the same timings report the same
// p50 and p99, and a slow pass moves neither.
func TestSectionLatencyIgnoresPassCount(t *testing.T) {
	pass := make([]float64, 35)
	for i := range pass {
		pass[i] = float64(i+1) * 10 // the last section ends the pass at 350ms
	}
	pass[33], pass[34] = 1000, 5000
	passes := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = pass
		}
		return out
	}
	for _, n := range []int{1, 5, 6, 9} {
		p50, p99 := sectionLatency(passes(n))
		if p50 != 180 || p99 != 5000 {
			t.Errorf("%d passes: p50 %g p99 %g, want 180 and 5000", n, p50, p99)
		}
	}
	slow := make([]float64, 35)
	for i := range slow {
		slow[i] = 2 * pass[i]
	}
	ps := append(passes(4), slow)
	if p50, p99 := sectionLatency(ps); p50 != 180 || p99 != 5000 {
		t.Errorf("one slow pass of five moved p50 %g p99 %g", p50, p99)
	}
}

func TestSummarize(t *testing.T) {
	xs := seq(1000)
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	d, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 1000 || d.P50 != 500 || d.TailP != 99 || d.Tail != 990 || d.Max != 1000 {
		t.Errorf("summarize(1..1000) = %+v", d)
	}
	if xs[0] == 1 && xs[999] == 1000 {
		t.Error("summarize sorted its argument in place")
	}
	if _, err := summarize(seq(15)); err == nil {
		t.Error("15 samples gave a tail")
	}
}

// The quiet quartile of ten rounds is the third lowest, so seven
// slowed rounds leave it unmoved, and it does not sort its argument.
func TestQuietQuartile(t *testing.T) {
	rounds := []float64{9, 1.2, 8, 1.0, 7, 6, 1.1, 5, 4, 3}
	if got := quietQuartile(rounds); got != 1.2 {
		t.Errorf("quiet quartile = %g, want 1.2", got)
	}
	if rounds[0] != 9 {
		t.Error("quietQuartile sorted its argument in place")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestCheckLateness(t *testing.T) {
	lat := dist{P50: 500, TailP: 99, Tail: 2000}
	if err := checkLateness(dist{P50: 40, Tail: 1900}, lat); err != nil {
		t.Errorf("valid run rejected: %v", err)
	}
	if err := checkLateness(dist{P50: 60, Tail: 100}, lat); err == nil {
		t.Error("median lateness of 12% of the median latency accepted")
	}
}

// Latency counts from the due time, so a generator that sends late, or
// a request that waits for a connection, is charged for it; lateness
// counts only the generator's own delay after a connection came free.
func TestShotTiming(t *testing.T) {
	s := shot{Due: 10 * time.Millisecond, Dispatched: 12 * time.Millisecond,
		Sent: 12*time.Millisecond + 30*time.Microsecond, Done: 13 * time.Millisecond}
	if s.Latency() != 3*time.Millisecond || s.Late() != 30*time.Microsecond {
		t.Errorf("latency %v late %v", s.Latency(), s.Late())
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	due := poissonSchedule(rng, 1000, 10000)
	if len(due) != 10000 {
		t.Fatalf("asked for 10000 arrivals, got %d", len(due))
	}
	if end := due[len(due)-1]; end < 9700*time.Millisecond || end > 10300*time.Millisecond {
		t.Errorf("10000 arrivals at 1000/s end at %v", end)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
}

// A phase's request count follows --seconds only, so the fixed-rate
// tail is the same percentile on every seed: serve-cold's fixed rate
// sends 150 requests in each of its ten rounds in a 50s run, and the
// p99 of all 1500 keeps ten above it.
func TestArrivalsFixTheTailLevel(t *testing.T) {
	spec := coldSpec
	n := rounds * arrivals(spec.Rate, time.Duration(spec.FixedShare*50*float64(time.Second))/rounds)
	if n != 1500 {
		t.Fatalf("serve-cold fixed rate sends %d requests in 50s, want 1500", n)
	}
	if p, ok := tailLevel(n); !ok || p != 99 {
		t.Errorf("serve-cold fixed rate reports p%g", p)
	}
	if arrivals(50, time.Millisecond) != 1 {
		t.Error("a phase sends no request")
	}
}

func TestGeometricLadder(t *testing.T) {
	l := geometricLadder(10, 100, 1.5)
	want := []float64{10, 15, 23, 34, 51, 76}
	if len(l) != len(want) {
		t.Fatalf("ladder %v, want %v", l, want)
	}
	for i := range want {
		if l[i] != want[i] {
			t.Fatalf("ladder %v, want %v", l, want)
		}
	}
}

// A monotone objective that holds up to rate 70 on rungs 10..100.
func TestClimbLadder(t *testing.T) {
	ladder := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	meets := func(rate float64) probe { return probe{Pass: rate <= 70} }
	for _, tc := range []struct {
		start, probes, best, search int
	}{
		{0, 20, 6, 7},  // 0 1 2 4 pass, 8 fails, then 6 passes and 7 fails
		{4, 20, 6, 5},  // 4 5 6 pass, 8 fails, 7 fails
		{9, 20, 6, 5},  // 9 8 7 fail, 5 passes, 6 passes
		{6, 20, 6, 2},  // starts on the boundary
		{0, 3, 2, 3},   // out of probes while still passing
		{9, 2, -1, 2},  // out of probes while still failing
		{12, 20, 6, 5}, // a start past the top is clamped
	} {
		best, probes := climbLadder(ladder, tc.start, tc.probes, 50, meets)
		if best != tc.best || len(probes) != tc.probes {
			t.Errorf("start %d, %d probes: best %d after %d probes, want %d after %d",
				tc.start, tc.probes, best, len(probes), tc.best, tc.probes)
		}
		// Once the search has found the boundary, the spare probes
		// alternate between the rungs on either side of it.
		for i, p := range probes[tc.search:] {
			if want := []float64{80, 70}[i%2]; p.Rate != want {
				t.Errorf("start %d: spare probe %d at %v, want %v", tc.start, i, p.Rate, want)
				break
			}
		}
	}
	if best, _ := climbLadder(ladder, 3, 20, 50, func(float64) probe { return probe{} }); best != -1 {
		t.Errorf("no rung passes but best = %d", best)
	}
	best, probes := climbLadder(ladder, 3, 20, 50, func(float64) probe { return probe{Pass: true} })
	if best != len(ladder)-1 || len(probes) != 5 {
		t.Errorf("every rung passes but best = %d after %d probes", best, len(probes))
	}
}

// When a repeat fails the only rung that passed, the walk goes on past
// maxProbes and steps down until a rung passes on its pooled probes.
func TestClimbLadderStepsDownWhenNothingPassesPooled(t *testing.T) {
	ladder := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	script := map[float64][]float64{70: {40, 90}, 80: {100, 100}, 60: {30}}
	calls := map[float64]int{}
	try := func(rate float64) probe {
		p99 := script[rate][calls[rate]]
		calls[rate]++
		// Ten of the hundred latencies are the p99, so a pooled p99 is
		// the largest of its probes'.
		lat := make([]float64, 100)
		for i := range lat {
			lat[i] = 1
			if i >= 90 {
				lat[i] = p99
			}
		}
		return probe{Pass: p99 <= 50, Lat: lat, P99: p99}
	}
	_, probes := climbLadder(ladder, 6, 4, 50, try)
	var rates []float64
	for _, p := range probes {
		rates = append(rates, p.Rate)
	}
	if want := []float64{70, 80, 80, 70, 60}; fmt.Sprint(rates) != fmt.Sprint(want) {
		t.Fatalf("probed %v, want %v", rates, want)
	}
	want := 60 * math.Pow(70.0/60, math.Log(50.0/30)/math.Log(90.0/30))
	if got := crossing(probes, 50); math.Abs(got-want) > 1e-9 {
		t.Errorf("crossing = %v, want %v", got, want)
	}
}

// The crossing lies where a power law through the highest pass and the
// lowest failure above it meets the limit, and falls back to the
// passing rate when that failure was not a p99 over the limit.
func TestCrossing(t *testing.T) {
	// probeAt is a probe of 100 latencies whose p99 is p99: 98 of 1us
	// and two of p99.
	probeAt := func(rate float64, pass bool, p99 float64) probe {
		lat := make([]float64, 100)
		for i := range lat {
			lat[i] = 1
		}
		lat[98], lat[99] = p99, p99
		return probe{Rate: rate, Pass: pass, Lat: lat, P99: p99}
	}
	probes := []probe{
		probeAt(100, true, 20),
		probeAt(400, false, 80),
		probeAt(200, true, 25),
		probeAt(800, false, 900),
	}
	// From (200, 25) to (400, 80) the p99 grows as rate^log2(3.2), so
	// it doubles to 50 at 200 * 2^(1/log2(3.2)).
	want := 200 * math.Pow(2, math.Log(2)/math.Log(3.2))
	if got := crossing(probes, 50); math.Abs(got-want) > 1e-9 {
		t.Errorf("crossing = %v, want %v", got, want)
	}
	probes[1] = probe{Rate: 400} // the failure above was not on p99
	if got := crossing(probes, 50); got != 200 {
		t.Errorf("crossing without a p99 above = %v, want 200", got)
	}
	if got := crossing(probes[:1], 50); got != 100 {
		t.Errorf("crossing with no failure above = %v, want 100", got)
	}
	if got := crossing([]probe{probeAt(10, false, 90)}, 50); got != 0 {
		t.Errorf("crossing with no pass = %v, want 0", got)
	}
	// The probes of one rate pool their latencies. 200's 300 latencies
	// end in 25 25 30 30 60 60, so its p99 (rank 297) is 30 and the one
	// slow probe does not fail it; 400's end in 45 45 80 80 100 100, so
	// its p99 is 80 and the one fast probe does not pass it.
	probes = []probe{
		probeAt(200, true, 25),
		probeAt(400, false, 80),
		probeAt(200, false, 60),
		probeAt(400, true, 45),
		probeAt(200, true, 30),
		probeAt(400, false, 100),
	}
	want = 200 * math.Pow(2, math.Log(50.0/30)/math.Log(80.0/30))
	if got := crossing(probes, 50); math.Abs(got-want) > 1e-9 {
		t.Errorf("pooled crossing = %v, want %v", got, want)
	}
	// A probe that failed on its backlog fails its rate whatever the p99.
	probes = append(probes, probeAt(200, false, 20))
	if got := crossing(probes, 50); got != 0 {
		t.Errorf("crossing with a backlogged rate = %v, want 0", got)
	}
}

// BENCHMARK.json must list exactly the per-layer metrics a traced run
// reports.
func TestBenchmarkJSONListsEveryLayerMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	want := layerMetrics()
	if len(b.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(b.PerLayer), len(want))
	}
	for i := range want {
		if b.PerLayer[i] != want[i] {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, b.PerLayer[i], want[i])
		}
	}
}
