package service

import "time"

// Adapters between TestObservabilityGolden and the counter and ring
// internals it drives, kept apart from the test so the fixture itself
// does not depend on how the counters are stored.

// goldenEnd finishes one request the way instrument does.
func goldenEnd(s *Server, route string, d time.Duration, status int, id RequestID) {
	s.metrics.requestEnd(&requestRecord{route: route, status: status, id: id, totalUS: d.Microseconds()})
}

// goldenCount bumps the counters whose increment sites sit deep in the
// flight and cluster paths.
func goldenCount(s *Server, coalesced, leaders, clusterServed int64) {
	for c, n := range map[counter]int64{cCoalesced: coalesced, cLeaders: leaders, cClusterServed: clusterServed} {
		for ; n > 0; n-- {
			s.metrics.inc(c)
		}
	}
}

// goldenRecord appends one row to the recent-request ring.
func goldenRecord(s *Server, rec requestRecord) {
	s.metrics.mu.Lock()
	s.metrics.requests.Add(rec)
	s.metrics.mu.Unlock()
}
