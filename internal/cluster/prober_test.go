package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// probedCluster builds a named cluster whose nodes share one journal per
// node between the cluster and serving tiers (the production wiring), so
// peer-health transitions land in the same /debug/events ring drains and
// sheds do.
func probedCluster(t *testing.T, n int, mutate func(i int, ccfg *Config, scfg *service.Config)) (*testCluster, []*obs.Journal) {
	t.Helper()
	journals := make([]*obs.Journal, n)
	tc := namedCluster(t, n, func(i int, ccfg *Config, scfg *service.Config) {
		journals[i] = obs.NewJournal(64, nil, fmt.Sprintf("n%d", i))
		ccfg.Journal = journals[i]
		scfg.Journal = journals[i]
		ccfg.Replicas = -1
		if mutate != nil {
			mutate(i, ccfg, scfg)
		}
	})
	return tc, journals
}

// peerStateOn reads node i's current belief about peer from its health
// snapshot.
func peerStateOn(t *testing.T, tc *testCluster, i int, peer string) string {
	t.Helper()
	for _, entry := range tc.nodes[i].HealthSnapshot() {
		if e := entry.(map[string]any); e["peer"] == peer {
			s, _ := e["state"].(string)
			return s
		}
	}
	t.Fatalf("peer %q not in node %d's health snapshot", peer, i)
	return ""
}

// Killing a peer flips it healthy→degraded→unreachable within the
// hysteresis bound (2 failures, then 4), the forwarding path skips the
// unreachable owner proactively — byte-identical local compute, no
// forward attempted — and recovery walks back to healthy after 2 good
// probes. Every transition lands in the observer's journal.
func TestProberKillRecoverFlipsState(t *testing.T) {
	tc, journals := probedCluster(t, 3, nil)
	ref := newReferenceServer(t)
	ctx := context.Background()

	var p point
	var owner, follower int
	for _, cand := range allPoints() {
		oi := tc.index(t, tc.nodes[0].OwnerOf(cand.key(t)))
		p, owner, follower = cand, oi, (oi+1)%3
		break
	}
	want := mustSolve(t, ref, p.body(), "")
	ownerURL := tc.urls[owner]

	tc.kill(owner)

	// Hysteresis: one failure is noise, two mean degraded, four mean
	// unreachable. The live peer stays healthy through every round.
	tc.nodes[follower].ProbeOnce(ctx)
	if st := peerStateOn(t, tc, follower, ownerURL); st != "healthy" {
		t.Fatalf("after 1 failed probe: %s, want healthy (hysteresis)", st)
	}
	tc.nodes[follower].ProbeOnce(ctx)
	if st := peerStateOn(t, tc, follower, ownerURL); st != "degraded" {
		t.Fatalf("after 2 failed probes: %s, want degraded", st)
	}
	tc.nodes[follower].ProbeOnce(ctx)
	tc.nodes[follower].ProbeOnce(ctx)
	if st := peerStateOn(t, tc, follower, ownerURL); st != "unreachable" {
		t.Fatalf("after 4 failed probes: %s, want unreachable", st)
	}
	liveURL := tc.urls[3-owner-follower]
	if st := peerStateOn(t, tc, follower, liveURL); st != "healthy" {
		t.Fatalf("live peer %s = %s, want healthy", liveURL, st)
	}

	// The skip: an owned key whose owner is known dead computes locally
	// without attempting the forward, and the bytes stay identical.
	before := tc.nodes[follower].Stats()
	got := mustSolve(t, tc.urls[follower], p.body(), "")
	if !bytes.Equal(got, want) {
		t.Fatalf("skip-unhealthy solve diverged:\n%s\nvs reference\n%s", got, want)
	}
	after := tc.nodes[follower].Stats()
	if after.ForwardsSkipped != before.ForwardsSkipped+1 {
		t.Fatalf("forwards skipped %d -> %d, want one skip", before.ForwardsSkipped, after.ForwardsSkipped)
	}
	if after.ForwardsOut != before.ForwardsOut {
		t.Fatalf("forward attempted against a known-unreachable owner (out %d -> %d)",
			before.ForwardsOut, after.ForwardsOut)
	}

	// Recovery: two successful probes restore healthy, and forwards
	// resume.
	tc.revive(owner)
	tc.nodes[follower].ProbeOnce(ctx)
	if st := peerStateOn(t, tc, follower, ownerURL); st != "unreachable" {
		t.Fatalf("after 1 good probe: %s, want still unreachable (hysteresis)", st)
	}
	tc.nodes[follower].ProbeOnce(ctx)
	if st := peerStateOn(t, tc, follower, ownerURL); st != "healthy" {
		t.Fatalf("after 2 good probes: %s, want healthy", st)
	}
	got = mustSolve(t, tc.urls[follower], p.body(), "")
	if !bytes.Equal(got, want) {
		t.Fatalf("post-recovery solve diverged:\n%s\nvs reference\n%s", got, want)
	}
	final := tc.nodes[follower].Stats()
	if final.ForwardsOut != after.ForwardsOut+1 || final.ForwardServed != after.ForwardServed+1 {
		t.Fatalf("post-recovery forward not attempted/served: %+v vs %+v", final, after)
	}

	// The ladder's transitions, in order, from the follower's journal —
	// and nothing about the peer that never flapped.
	var transitions []string
	for _, ev := range journals[follower].Events() {
		if ev.Type != obs.EventPeerHealth {
			continue
		}
		if ev.Subject != ownerURL {
			t.Fatalf("peer_health event for %q, only %q changed state", ev.Subject, ownerURL)
		}
		transitions = append(transitions, ev.Detail)
	}
	wantLadder := []string{"healthy->degraded", "degraded->unreachable", "unreachable->healthy"}
	if len(transitions) != len(wantLadder) {
		t.Fatalf("journal transitions = %v, want %v", transitions, wantLadder)
	}
	for i := range wantLadder {
		if transitions[i] != wantLadder[i] {
			t.Fatalf("journal transitions = %v, want %v", transitions, wantLadder)
		}
	}

	// The same transitions surface over HTTP at the follower's
	// /debug/events and its health view reports the recovered peer.
	resp, err := http.Get(tc.urls[follower] + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// The marshaller HTML-escapes ">", so decode instead of substring
	// matching the transition arrows.
	var evDoc struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(b, &evDoc); err != nil {
		t.Fatalf("/debug/events not JSON: %v\n%s", err, b)
	}
	var served []string
	for _, ev := range evDoc.Events {
		if ev.Type == obs.EventPeerHealth {
			served = append(served, ev.Detail)
		}
	}
	if len(served) != 3 || served[1] != "degraded->unreachable" {
		t.Fatalf("/debug/events peer_health details = %v, want the full ladder:\n%s", served, b)
	}
}

// mergedTimeline fetches one ?scope=cluster view twice, checks the two
// bodies are byte-identical, and returns the decoded doc.
func mergedTimeline(t *testing.T, base, path, listKey string) (map[string]any, []map[string]any) {
	t.Helper()
	fetch := func() []byte {
		resp, err := http.Get(base + path + "?scope=cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s?scope=cluster: %d: %s", path, resp.StatusCode, b)
		}
		return b
	}
	b1, b2 := fetch(), fetch()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("merged %s not deterministic:\n%s\nvs\n%s", path, b1, b2)
	}
	var doc map[string]any
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("merged %s not JSON: %v\n%s", path, err, b1)
	}
	raw, _ := doc[listKey].([]any)
	rows := make([]map[string]any, 0, len(raw))
	for _, r := range raw {
		rm, ok := r.(map[string]any)
		if !ok {
			t.Fatalf("merged %s row is not an object: %v", path, r)
		}
		rows = append(rows, rm)
	}
	return doc, rows
}

// The cluster-merged health and event views: every member's entries
// tagged with the observing node, ordered by (unix_ms, node, seq), an
// unreachable member reported, and the whole body byte-deterministic
// across fetches.
func TestClusterHealthAndEventsMergeOrder(t *testing.T) {
	tc, journals := probedCluster(t, 3, nil)
	ctx := context.Background()

	// Deterministic per-node clocks so the merged order is assertable:
	// node 1 journals first, then node 2, then node 0 — the opposite of
	// member-list order, so a merge that sorted by node instead of
	// timestamp fails.
	stamps := []int64{3000, 1000, 2000}
	for i, j := range journals {
		ms := stamps[i]
		j.SetNow(func() time.Time { return time.UnixMilli(ms) })
	}
	dead := "http://127.0.0.1:1"
	for i := range tc.nodes {
		tc.nodes[i].AddMember(dead) // one membership event per node
	}
	tc.srvs[1].BeginDrain() // second event on node 1, same stamp, higher seq

	doc, events := mergedTimeline(t, tc.urls[0], "/debug/events", "events")
	wantNodes := []string{tc.urls[1], tc.urls[1], tc.urls[2], tc.urls[0]}
	wantTypes := []string{obs.EventMembership, obs.EventDrain, obs.EventMembership, obs.EventMembership}
	if len(events) != len(wantNodes) {
		t.Fatalf("merged events = %d rows, want %d: %v", len(events), len(wantNodes), events)
	}
	for i, ev := range events {
		if ev["node"] != wantNodes[i] || ev["type"] != wantTypes[i] {
			t.Fatalf("merged event %d = node %v type %v, want node %s type %s\nall: %v",
				i, ev["node"], ev["type"], wantNodes[i], wantTypes[i], events)
		}
	}
	var lastMS float64
	for _, ev := range events {
		ms, _ := ev["unix_ms"].(float64)
		if ms < lastMS {
			t.Fatalf("merged events not time-ordered: %v", events)
		}
		lastMS = ms
	}
	unreach, _ := doc["unreachable"].([]any)
	if len(unreach) != 1 || unreach[0] != dead {
		t.Fatalf("events unreachable = %v, want the dead member", unreach)
	}

	// Health: each live node reports its three peers (two live, the dead
	// member), every row tagged with the observing node.
	for i := range tc.nodes {
		tc.nodes[i].ProbeOnce(ctx)
	}
	doc, peers := mergedTimeline(t, tc.urls[0], "/debug/health", "peers")
	if len(peers) != 9 {
		t.Fatalf("merged health = %d rows, want 3 nodes x 3 peers", len(peers))
	}
	byNode := map[string]int{}
	for _, row := range peers {
		node, _ := row["node"].(string)
		if node == "" {
			t.Fatalf("merged health row missing node tag: %v", row)
		}
		byNode[node]++
		if st, _ := row["state"].(string); st != "healthy" {
			t.Fatalf("peer %v observed %s by %s after one probe round, want healthy (hysteresis)",
				row["peer"], st, node)
		}
	}
	for _, u := range tc.urls {
		if byNode[u] != 3 {
			t.Fatalf("node %s contributes %d health rows, want 3: %v", u, byNode[u], byNode)
		}
	}
	unreach, _ = doc["unreachable"].([]any)
	if len(unreach) != 1 || unreach[0] != dead {
		t.Fatalf("health unreachable = %v, want the dead member", unreach)
	}
}

// The Prometheus exposition on a cluster-configured node under content
// negotiation: format=prometheus is always the node's own scrape (each
// node is its own federation target — scope=cluster changes nothing),
// and the dialect follows the Accept header. The SLO families ride both
// dialects.
func TestClusterScopePrometheusOpenMetrics(t *testing.T) {
	tc := namedCluster(t, 3, nil)
	url := tc.urls[0] + "/metrics?scope=cluster&format=prometheus"

	// Default Accept: the legacy 0.0.4 text format, no OpenMetrics
	// terminator.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	legacy, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("legacy Content-Type = %q", ct)
	}
	if bytes.Contains(legacy, []byte("# EOF")) {
		t.Fatalf("legacy scrape carries the OpenMetrics terminator:\n%s", legacy)
	}
	if !bytes.Contains(legacy, []byte("ipcd_slo_target_ppm")) {
		t.Fatalf("legacy scrape missing the SLO families:\n%s", legacy)
	}

	// OpenMetrics negotiation: the OM content type and # EOF terminator.
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/openmetrics-text") {
		t.Fatalf("openmetrics Content-Type = %q", ct)
	}
	if !bytes.HasSuffix(bytes.TrimSpace(om), []byte("# EOF")) {
		t.Fatalf("openmetrics scrape not terminated with # EOF:\n...%s", om[max(0, len(om)-120):])
	}
	if !bytes.Contains(om, []byte("ipcd_slo_burn_milli")) {
		t.Fatalf("openmetrics scrape missing the SLO families:\n%s", om)
	}
}
