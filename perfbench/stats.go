package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLevels are the percentiles a tail metric may report, highest
// first; the first one that leaves minBeyond samples above it is used.
var tailLevels = []float64{99, 98, 95, 90, 75, 50}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailLevel picks the highest entry of tailLevels with at least
// minBeyond of n samples above it; ok is false when even the median
// has fewer.
func tailLevel(n int) (p float64, ok bool) {
	for _, p := range tailLevels {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// dist summarizes one sample set: its size, median, and tail.
type dist struct {
	N      int
	P50    float64
	TailP  float64 // the percentile Tail reports
	Tail   float64
	Max    float64
	sorted []float64
}

// at is the nearest-rank p-th percentile of the summarized samples.
func (d dist) at(p float64) float64 { return percentile(d.sorted, p) }

// summarize sorts a copy of xs and reports its median and tail. A set
// too small for a tail with minBeyond samples above it is an error.
func summarize(xs []float64) (dist, error) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p, ok := tailLevel(len(s))
	if !ok {
		return dist{}, fmt.Errorf("%d samples leave fewer than %d above the median", len(s), minBeyond)
	}
	return dist{N: len(s), P50: percentile(s, 50), TailP: p, Tail: percentile(s, p),
		Max: s[len(s)-1], sorted: s}, nil
}

// median is the middle value of xs (the mean of the middle two for an
// even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quietQuartile is the nearest-rank lower quartile of per-round
// figures: the third lowest of ten rounds. Host interference only adds
// time, so on a shared host it is the round figure that stays put when
// up to seven of ten rounds are slowed by other tenants; a change to the
// program moves every round, and with them this one.
func quietQuartile(rounds []float64) float64 {
	s := append([]float64(nil), rounds...)
	sort.Float64s(s)
	return percentile(s, 25)
}

// maxLateShare bounds a valid open-loop run: the generator's median
// lateness over the median latency it reports. A run past it would be
// timing the generator, not the server.
const maxLateShare = 0.10

// checkLateness rejects a run whose generator fell behind its schedule
// by an amount comparable to the latencies it measured. Medians keep a
// stall of the whole host, which delays sends and responses alike, from
// deciding it.
func checkLateness(late, latency dist) error {
	if late.P50 > maxLateShare*latency.P50 {
		return fmt.Errorf("generator median lateness %.0fus exceeds %.0f%% of median latency %.0fus",
			late.P50, 100*maxLateShare, latency.P50)
	}
	return nil
}

// probe is one ladder rung's verdict, the latencies it measured and
// their p99 (0 when the probe failed before a p99 could be taken).
type probe struct {
	Rate float64
	Pass bool
	Lat  []float64
	P99  float64
	Why  string
}

// climbLadder probes an ascending ladder for the boundary of the
// objective, a p99 latency of at most limit. From start it steps up
// while rungs pass, or down while they fail, doubling the step each
// time, then halves the gap between the highest pass and the lowest
// failure above it. With a monotone objective and enough probes it
// reaches the boundary; a noisy host far from the start costs only a
// few probes. The probes left of maxProbes then walk the boundary one
// rung at a time, up when the rung just probed passes on its pooled
// probes (see pool) and down when it fails, so the rungs next to the
// boundary are probed again and their pooled p99s settle. The walk goes
// on past maxProbes, up to twice it, while no rung passes pooled, so
// that an unlucky repeat of the only passing rung steps down to a
// lower one. best is the highest rung that passed a probe, -1 when none
// did.
func climbLadder(ladder []float64, start, maxProbes int, limit float64, try func(rate float64) probe) (best int, probes []probe) {
	start = min(max(start, 0), len(ladder)-1)
	best, fail := -1, len(ladder) // highest pass, lowest failure above it
	run := func(i int) bool {
		p := try(ladder[i])
		p.Rate = ladder[i]
		probes = append(probes, p)
		ok := p.Pass
		if ok {
			best = max(best, i)
		} else if i > best {
			fail = min(fail, i)
		}
		return ok
	}
	up := run(start)
	for step := 1; len(probes) < maxProbes; step *= 2 {
		if up && fail < len(ladder) || !up && best >= 0 {
			break // bracketed
		}
		next := start + step
		if !up {
			next = start - step
		}
		if next < 0 || next >= len(ladder) {
			if next >= len(ladder) && best < len(ladder)-1 {
				run(len(ladder) - 1)
			} else if next < 0 && best < 0 && start > 0 {
				run(0)
			}
			break
		}
		run(next)
	}
	for len(probes) < maxProbes && best >= 0 && fail-best > 1 && fail < len(ladder) {
		run((best + fail) / 2)
	}
	walk := func() bool {
		if len(probes) < maxProbes {
			return true
		}
		for _, r := range pool(probes, limit) {
			if r.pass {
				return false
			}
		}
		return len(probes) < 2*maxProbes
	}
	for i := best + 1; best >= 0 && i >= 0 && i < len(ladder) && walk(); {
		run(i)
		if pooledPass(probes, ladder[i], limit) {
			i++
		} else {
			i--
		}
	}
	return best, probes
}

// pooled is the verdict on one rate over all its probes.
type pooled struct {
	rate, p99 float64
	pass      bool
}

// pool groups probes by rate, in ascending order of rate. A rate's p99
// is that of all its probes' latencies together, and it passes when
// that p99 meets limit and none of its probes failed on anything but
// its p99.
func pool(probes []probe, limit float64) []pooled {
	byRate := map[float64][]probe{}
	for _, p := range probes {
		byRate[p.Rate] = append(byRate[p.Rate], p)
	}
	var rates []pooled
	for rate, ps := range byRate {
		r := pooled{rate: rate, pass: true}
		var lat []float64
		for _, p := range ps {
			lat = append(lat, p.Lat...)
			r.pass = r.pass && (p.Pass || p.P99 > limit)
		}
		sort.Float64s(lat)
		if len(lat) > 0 {
			r.p99 = percentile(lat, 99)
		}
		r.pass = r.pass && r.p99 <= limit
		rates = append(rates, r)
	}
	sort.Slice(rates, func(i, j int) bool { return rates[i].rate < rates[j].rate })
	return rates
}

// pooledPass is the pooled verdict on rate.
func pooledPass(probes []probe, rate, limit float64) bool {
	for _, r := range pool(probes, limit) {
		if r.rate == rate {
			return r.pass
		}
	}
	return false
}

// crossing is the rate at which the p99 latency meets limit, from the
// pooled probes. Between the highest passing rate and the lowest
// failing rate above it, the p99 is taken to grow as a power of the
// rate, so the answer moves with the measured latencies instead of
// stepping from rung to rung. When that failing rate failed on
// something other than its p99, or none failed above, it is the
// passing rate itself. It is 0 when no rate passed.
func crossing(probes []probe, limit float64) float64 {
	rates := pool(probes, limit)
	lo := -1
	for i, r := range rates {
		if r.pass {
			lo = i
		}
	}
	if lo < 0 {
		return 0
	}
	if lo == len(rates)-1 || rates[lo+1].p99 <= limit || rates[lo].p99 <= 0 {
		return rates[lo].rate
	}
	a, b := rates[lo], rates[lo+1]
	return a.rate * math.Pow(b.rate/a.rate, math.Log(limit/a.p99)/math.Log(b.p99/a.p99))
}
