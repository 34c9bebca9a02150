package models

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gtpn"
	"repro/internal/timing"
)

func relNear(t *testing.T, got, want, rel float64, what string) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > rel {
			t.Errorf("%s = %v, want 0", what, got)
		}
		return
	}
	if math.IsNaN(got) || math.Abs(got-want)/math.Abs(want) > rel {
		t.Errorf("%s = %v, want %v (rel tol %v)", what, got, want, rel)
	}
}

// Architecture I local, one conversation: the cycle is the sum of the
// three stages — 1390 + 970 + (2610 + X), per Tables 6.4/6.5.
func TestArchILocalSingleConversation(t *testing.T) {
	m := BuildLocal(timing.ArchI, 1, 1, 0)
	res, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	relNear(t, res.RoundTrip, 4970, 1e-6, "round trip")
	relNear(t, res.Throughput, 1.0/4970, 1e-6, "throughput")

	// With server computation the cycle stretches by X.
	m = BuildLocal(timing.ArchI, 1, 1, 5700)
	res, err = m.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	relNear(t, res.RoundTrip, 4970+5700, 1e-6, "round trip with compute")
}

// Architecture I local throughput is flat in the number of conversations
// (one host does all the work) — the Figure 6.17(a) observation.
func TestArchILocalFlatInConversations(t *testing.T) {
	var tput [3]float64
	for i, n := range []int{1, 2, 3} {
		res, err := BuildLocal(timing.ArchI, n, 1, 0).Solve(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tput[i] = res.Throughput
	}
	relNear(t, tput[1], tput[0], 1e-6, "2 vs 1 conversations")
	relNear(t, tput[2], tput[0], 1e-6, "3 vs 1 conversations")
}

// Architecture II local, one conversation: the serial cycle sums every
// stage of Table 6.10 (5747.5 us); the ~10% single-conversation loss
// against architecture I that §6.9.1 reports.
func TestArchIILocalSingleConversation(t *testing.T) {
	m := BuildLocal(timing.ArchII, 1, 1, 0)
	res, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The client and server halves of a conversation pipeline across the
	// host and the MP, so the cycle is shorter than the serial stage sum
	// (5747.5): Table 6.24's offered loads imply the paper's model
	// produced C ~= 5430 us, which this net reproduces.
	relNear(t, res.RoundTrip, 5430, 0.005, "round trip")
	if res.RoundTrip <= 4970 || res.RoundTrip > 4970*1.2 {
		t.Errorf("arch II single-conversation loss = %.1f%%, paper reports a small (~10-16%%) loss",
			(res.RoundTrip/4970-1)*100)
	}
}

// With several conversations at maximum communication load, architecture
// II pipelines host and MP and beats architecture I; architecture III
// beats both (Figure 6.17(a)).
func TestMaxLoadOrderingLocal(t *testing.T) {
	const n = 3
	tput := map[timing.Arch]float64{}
	for _, a := range []timing.Arch{timing.ArchI, timing.ArchII, timing.ArchIII} {
		res, err := BuildLocal(a, n, 1, 0).Solve(SolveOptions{})
		if err != nil {
			t.Fatalf("arch %v: %v", a, err)
		}
		tput[a] = res.Throughput
	}
	if !(tput[timing.ArchII] > tput[timing.ArchI]) {
		t.Errorf("arch II (%.3g) should beat arch I (%.3g) at max load, n=%d",
			tput[timing.ArchII], tput[timing.ArchI], n)
	}
	if !(tput[timing.ArchIII] > tput[timing.ArchII]) {
		t.Errorf("arch III (%.3g) should beat arch II (%.3g)",
			tput[timing.ArchIII], tput[timing.ArchII])
	}
}

// Architecture IV differs only marginally from III: shared memory is not
// the bottleneck (§6.9.3).
func TestArchIVCloseToArchIII(t *testing.T) {
	r3, err := BuildLocal(timing.ArchIII, 2, 1, 1140).Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := BuildLocal(timing.ArchIV, 2, 1, 1140).Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := r4.Throughput / r3.Throughput
	if ratio < 1.0 || ratio > 1.10 {
		t.Errorf("arch IV/III throughput ratio = %.3f, want slightly above 1", ratio)
	}
}

// The model's Monte Carlo simulation agrees with the analytical solution.
func TestLocalModelSimulatorAgreement(t *testing.T) {
	m := BuildLocal(timing.ArchII, 2, 1, 570)
	sol, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := m.Simulate(11, 30_000_000)
	if err != nil {
		t.Fatal(err)
	}
	relNear(t, sim.Throughput, sol.Throughput, 0.02, "sim vs solver throughput")
}

// A solve that missed its tolerance is refused with its residual, not
// turned into rates: the check the local result and both halves of the
// non-local fixed point share.
func TestConvergedRejectsUnconvergedSolution(t *testing.T) {
	bad := &gtpn.Solution{Converged: false, Residual: 3e-4}
	err := converged(bad, "client", timing.ArchII, 3)
	if err == nil || !strings.Contains(err.Error(), "client model (arch") ||
		!strings.Contains(err.Error(), "did not converge (residual 0.0003)") {
		t.Fatalf("converged(non-converged) = %v", err)
	}
	if err := converged(&gtpn.Solution{Converged: true}, "server", timing.ArchII, 3); err != nil {
		t.Fatalf("converged(converged) = %v", err)
	}
	m := BuildLocal(timing.ArchII, 1, 1, 1140)
	if _, err := m.localResult(bad); err == nil || !strings.Contains(err.Error(), "local model") {
		t.Fatalf("localResult(non-converged) = %v", err)
	}
}

// Non-local fixed point: one conversation's round trip approximates the
// serial sum of the client and server stage means.
func TestNonLocalSingleConversation(t *testing.T) {
	res, err := SolveNonLocal(timing.ArchII, 1, 1, 0, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := timing.NonLocalRoundTripC(timing.ArchII)
	// The decomposition approximation costs some accuracy; the paper
	// itself reports deviations up to 10-25% against measurement.
	relNear(t, res.RoundTrip, want, 0.15, "non-local round trip")
	if res.Iterations < 2 {
		t.Errorf("iteration converged suspiciously fast (%d rounds)", res.Iterations)
	}
}

// Non-local maximum-load ordering across architectures (Figure 6.17(b)).
func TestMaxLoadOrderingNonLocal(t *testing.T) {
	const n = 3
	tput := map[timing.Arch]float64{}
	for _, a := range []timing.Arch{timing.ArchI, timing.ArchII, timing.ArchIII} {
		res, err := SolveNonLocal(a, n, 1, 0, SolveOptions{})
		if err != nil {
			t.Fatalf("arch %v: %v", a, err)
		}
		tput[a] = res.Throughput
	}
	if !(tput[timing.ArchII] > tput[timing.ArchI]) {
		t.Errorf("non-local: arch II (%.3g) should beat arch I (%.3g)", tput[timing.ArchII], tput[timing.ArchI])
	}
	if !(tput[timing.ArchIII] > tput[timing.ArchII]) {
		t.Errorf("non-local: arch III (%.3g) should beat arch II (%.3g)", tput[timing.ArchIII], tput[timing.ArchII])
	}
}

// At realistic load (nonzero compute), architecture II approaches the
// 2x upper bound over architecture I as conversations grow (§6.9.2).
func TestRealisticLoadGainLocal(t *testing.T) {
	const x = 2850 // S = 2.85 ms: offered load ~0.64 for arch I
	r1, err := BuildLocal(timing.ArchI, 3, 1, x).Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := BuildLocal(timing.ArchII, 3, 1, x).Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gain := r2.Throughput / r1.Throughput
	if gain < 1.2 || gain > 2.0 {
		t.Errorf("arch II gain over I at realistic load = %.2fx, want within (1.2, 2.0)", gain)
	}
}

// The contention model reproduces the order of the Table 6.2 inflation:
// completion times exceed the no-contention times by a few percent.
func TestContentionModel(t *testing.T) {
	rows, err := SolveContention(timing.Table62(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Contention <= r.Best {
			t.Errorf("%s: contention %.1f not above best %.1f", r.Name, r.Contention, r.Best)
		}
		if r.Contention > r.Best*1.25 {
			t.Errorf("%s: contention %.1f implausibly above best %.1f", r.Name, r.Contention, r.Best)
		}
	}
}

// The stage builder rejects sub-tick means.
func TestStageRejectsSubTickMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mean < 1 tick")
		}
	}()
	nb := newNetBuilder()
	p := nb.b.Place("P", 1)
	nb.stage("T", p, p, false, 0.5, nil, p)
}
