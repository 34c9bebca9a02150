package obs

import "sort"

// Ring is a fixed-capacity buffer that keeps the last Cap() items
// added, evicting the oldest first — the one ring behind the journal,
// the metrics history, the recent-request log and the SLO windows. It
// is not internally synchronized: each owner guards its ring with the
// lock it already holds for the surrounding state, so adding an item
// never takes a lock of its own.
type Ring[T any] struct {
	buf  []T
	next int // index of the next write
	full bool
}

// NewRing creates a ring retaining the last capacity items.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity)}
}

// Add appends v, evicting the oldest item when the ring is full.
func (r *Ring[T]) Add(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Items returns a copy of the retained items, oldest first.
func (r *Ring[T]) Items() []T {
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Cap reports the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len reports how many items the ring holds.
func (r *Ring[T]) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Ago returns the item added k adds ago: Ago(1) is the newest. k must
// lie in [1, Len()].
func (r *Ring[T]) Ago(k int) T { return r.buf[(r.next-k+len(r.buf))%len(r.buf)] }

// TimelinePart is one node's timeline as decoded from its JSON body:
// entries oldest first, each an object carrying "unix_ms".
type TimelinePart struct {
	Node    string
	Entries []any
}

// MergeTimeline merges per-node timelines into the fleet-wide
// (unix_ms, node, seq) order every merged view in this repository uses,
// where seq is an entry's position in its node's list. Each entry is
// tagged with its node under "node"; entries that are not JSON objects
// are dropped. The order is a pure function of the inputs, so a merge
// over unchanged timelines is deterministic even though member clocks
// are unrelated.
func MergeTimeline(parts []TimelinePart) []any {
	type tagged struct {
		unixMS float64
		node   string
		seq    int
		entry  map[string]any
	}
	var merged []tagged
	for _, p := range parts {
		for i, e := range p.Entries {
			em, ok := e.(map[string]any)
			if !ok {
				continue
			}
			em["node"] = p.Node
			ts, _ := em["unix_ms"].(float64)
			merged = append(merged, tagged{unixMS: ts, node: p.Node, seq: i, entry: em})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].unixMS != merged[j].unixMS {
			return merged[i].unixMS < merged[j].unixMS
		}
		if merged[i].node != merged[j].node {
			return merged[i].node < merged[j].node
		}
		return merged[i].seq < merged[j].seq
	})
	out := make([]any, 0, len(merged))
	for _, t := range merged {
		out = append(out, t.entry)
	}
	return out
}
