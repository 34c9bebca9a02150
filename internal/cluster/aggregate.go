package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/service"
)

// Cluster-aggregated observability: GET /metrics?scope=cluster and the
// timeline endpoints' ?scope=cluster fan out to every member's local
// view and merge the snapshots. Ordering is deterministic — members are
// visited and emitted in sorted order, merged timeline entries are
// ordered by (unix_ms, node, seq) — so the merged shape never depends
// on map or arrival order, and a timeline merge over unchanged entries
// is byte-identical. (Counter aggregation observes its own collection:
// the fan-out's GETs are themselves requests the members count.) The
// metrics totals are summed by service.SumMetrics, so this tier names
// no metric key. The fan-out always requests the LOCAL scope, so
// aggregation can never recurse through the cluster.

// AggregateMetrics implements service.ClusterRouter.
func (n *Node) AggregateMetrics(ctx context.Context) []byte {
	members := n.Members()
	nodes := map[string]any{}
	var docs []map[string]any
	unreachable := []string{}
	for _, m := range members {
		doc, err := n.fetchMemberJSON(ctx, m, "/metrics")
		if err != nil {
			unreachable = append(unreachable, m)
			continue
		}
		nodes[m] = doc
		docs = append(docs, doc)
	}
	return service.MarshalDeterministic(map[string]any{
		"epoch":       n.Epoch(),
		"members":     members,
		"nodes":       nodes,
		"self":        n.self,
		"totals":      service.SumMetrics(docs),
		"unreachable": unreachable,
	})
}

// AggregateTimeline implements service.ClusterRouter: one timestamped
// list (doc[listKey]) from every member, each entry tagged with its
// member URL and merged by obs.MergeTimeline.
func (n *Node) AggregateTimeline(ctx context.Context, path, listKey string) []byte {
	members := n.Members()
	var parts []obs.TimelinePart
	unreachable := []string{}
	for _, m := range members {
		doc, err := n.fetchMemberJSON(ctx, m, path)
		if err != nil {
			unreachable = append(unreachable, m)
			continue
		}
		entries, _ := doc[listKey].([]any)
		parts = append(parts, obs.TimelinePart{Node: m, Entries: entries})
	}
	return service.MarshalDeterministic(map[string]any{
		listKey:       obs.MergeTimeline(parts),
		"members":     members,
		"self":        n.self,
		"unreachable": unreachable,
	})
}

// fetchMemberJSON reads one member's local observability body — in
// process for self, over HTTP for a peer — as a generic JSON tree.
func (n *Node) fetchMemberJSON(ctx context.Context, member, path string) (map[string]any, error) {
	var raw []byte
	if member == n.self {
		raw = n.local.LocalBody(path)
	} else {
		ctx, cancel := context.WithTimeout(ctx, n.cfg.ControlTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, member+path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := n.cfg.Client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err = io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		if err != nil {
			return nil, err
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	return doc, nil
}
