package service

import (
	"sync"

	"repro/internal/counters"
)

// The preencoded-response cache. Every response body is deterministic
// JSON — identical requests yield byte-identical bodies — so a body,
// once encoded, is a pure function of its flight key and never needs
// invalidation: a cached entry can only ever be refreshed with the same
// bytes. That property turns the serving hot path into a hash lookup
// plus one Write: no decode of the solver's answer, no tree build, no
// re-encode, no per-request buffers.
//
// One index serves every hit. An entry is keyed by its request's
// identity — the validated parameters formatted as one string, the same
// key the flight group, the cluster ring and replica pushes use — so the
// local fast path formats that key into a scratch buffer and looks it up
// without allocating. Replica pushes are marked: the local fast path
// never serves them, so a replica's hit always flows through the cluster
// routing layer (Node.Route), where it is gated on ring entitlement and
// counted as a replica hit.
//
// Stats live in an internal/counters registry updated under the cache
// mutex — nil-safe handles, allocation-free updates, exactly the
// discipline the hardware counters use.

// respEntry is one cached response. The LRU list is intrusive — prev
// and next live in the entry — so recency updates never allocate.
type respEntry struct {
	prev, next *respEntry
	key        string // request identity (the flight key)
	body       []byte // preencoded response; immutable once stored
	replica    bool   // pushed by a peer: served only through Route
}

// RespCacheStats is a point-in-time snapshot of the cache counters.
type RespCacheStats struct {
	Hits        int64 // responses served from cached bytes
	Misses      int64 // fast-path lookups that found nothing
	Evictions   int64 // entries dropped for capacity
	Stores      int64 // entries stored (local computes + replica pushes)
	Entries     int64 // current entry count
	Bytes       int64 // current sum of body bytes
	TraceBypass int64 // traced requests that skipped the fast path
}

// RespCache is the LRU-bounded preencoded-response cache. A nil
// *RespCache is a valid "caching disabled" cache: every method is a
// cheap nil-check no-op, mirroring the trace and counters contracts.
type RespCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64 // 0 means unbounded
	curBytes   int64
	head, tail *respEntry // head = most recently used
	byKey      map[string]*respEntry

	hits        *counters.Counter
	misses      *counters.Counter
	evictions   *counters.Counter
	stores      *counters.Counter
	traceBypass *counters.Counter
	entries     *counters.Gauge
	bytes       *counters.Gauge

	// onHighWater, when set, fires (outside the mutex) each time
	// curBytes crosses nextHighWater; the mark then doubles, so a
	// steadily growing cache journals a bounded number of events.
	onHighWater   func(bytes int64)
	nextHighWater int64
}

func newRespCache(maxEntries int, maxBytes int64) *RespCache {
	reg := counters.New()
	return &RespCache{
		maxEntries:  maxEntries,
		maxBytes:    maxBytes,
		byKey:       map[string]*respEntry{},
		hits:        reg.Counter("resp_cache.hits"),
		misses:      reg.Counter("resp_cache.misses"),
		evictions:   reg.Counter("resp_cache.evictions"),
		stores:      reg.Counter("resp_cache.stores"),
		traceBypass: reg.Counter("resp_cache.trace_bypass"),
		entries:     reg.Gauge("resp_cache.entries"),
		bytes:       reg.Gauge("resp_cache.bytes"),
	}
}

// get looks a request key up on the local fast path; key is the
// formatted identity in a caller's scratch buffer (the map lookup does
// not copy it). On a hit it returns the entry's own key string. A miss —
// including a replica push, which only Route may serve — is counted
// here; the hit is counted by served() only once the caller decides the
// entry is actually serveable (cluster entitlement may veto it).
func (c *RespCache) get(key []byte) (string, []byte, bool) {
	if c == nil {
		return "", nil, false
	}
	c.mu.Lock()
	e := c.byKey[string(key)]
	if e == nil || e.replica {
		c.misses.Inc()
		c.mu.Unlock()
		return "", nil, false
	}
	c.moveToFrontLocked(e)
	k, body := e.key, e.body
	c.mu.Unlock()
	return k, body, true
}

// TraceBypass counts one traced request that skipped the fast path: a
// sampled trace exists to show the full pipeline, so traced requests
// never consult the cache, and without this counter that skew would be
// invisible in the hit/miss ratio.
func (c *RespCache) TraceBypass() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.traceBypass.Inc()
	c.mu.Unlock()
}

// served counts one response actually answered from cached bytes.
func (c *RespCache) served() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.hits.Inc()
	c.mu.Unlock()
}

// GetKey looks a canonical flight key up — the cluster tier's view of
// the cache (Node.Route serves replicated entries through it). A found
// entry counts as a hit immediately: the routing layer serves what it
// finds.
func (c *RespCache) GetKey(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e := c.byKey[key]
	if e == nil {
		c.mu.Unlock()
		return nil, false
	}
	c.moveToFrontLocked(e)
	c.hits.Inc()
	body := e.body
	c.mu.Unlock()
	return body, true
}

// PutReplica stores a replica-pushed body under its flight key, marked
// so the local fast path never serves it: a replica's hit always flows
// through the cluster routing layer (where it is gated on current ring
// entitlement and counted as a replica hit). Reports whether the entry
// was stored. The body must not be mutated after the call.
func (c *RespCache) PutReplica(key string, body []byte) bool {
	if c == nil || key == "" || len(body) == 0 {
		return false
	}
	return c.put(&respEntry{key: key, body: body, replica: true})
}

// putLocal stores a locally computed response.
func (c *RespCache) putLocal(key string, body []byte) {
	if c == nil {
		return
	}
	c.put(&respEntry{key: key, body: body})
}

// respCacheHighWaterStart is the first byte high-water mark the cache
// journals; each crossing doubles the next one.
const respCacheHighWaterStart = 1 << 20

// setHighWaterHook installs the high-water callback. Call before the
// cache serves traffic (service.New does).
func (c *RespCache) setHighWaterHook(start int64, fn func(bytes int64)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.nextHighWater = start
	c.onHighWater = fn
	c.mu.Unlock()
}

func (c *RespCache) put(e *respEntry) bool {
	if c.maxBytes > 0 && int64(len(e.body)) > c.maxBytes {
		// A single body larger than the whole byte budget would evict
		// everything and still not fit; refuse it instead.
		return false
	}
	c.mu.Lock()
	if old := c.byKey[e.key]; old != nil {
		// Refresh: the body is identical by the determinism contract, but
		// a local compute makes a replica-pushed entry locally serveable.
		c.moveToFrontLocked(old)
		old.replica = old.replica && e.replica
		c.mu.Unlock()
		return true
	}
	c.byKey[e.key] = e
	c.pushFrontLocked(e)
	c.curBytes += int64(len(e.body))
	c.stores.Inc()
	for (c.maxEntries > 0 && len(c.byKey) > c.maxEntries) ||
		(c.maxBytes > 0 && c.curBytes > c.maxBytes) {
		c.evictLocked()
	}
	c.entries.Set(int64(len(c.byKey)))
	c.bytes.Set(c.curBytes)
	var crossed int64
	if c.onHighWater != nil && c.nextHighWater > 0 && c.curBytes >= c.nextHighWater {
		crossed = c.curBytes
		for c.nextHighWater <= c.curBytes {
			c.nextHighWater *= 2
		}
	}
	hook := c.onHighWater
	c.mu.Unlock()
	if crossed > 0 {
		hook(crossed)
	}
	return true
}

// evictLocked drops the least recently used entry.
func (c *RespCache) evictLocked() {
	e := c.tail
	if e == nil {
		return
	}
	c.unlinkLocked(e)
	delete(c.byKey, e.key)
	c.curBytes -= int64(len(e.body))
	c.evictions.Inc()
}

func (c *RespCache) pushFrontLocked(e *respEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *RespCache) unlinkLocked(e *respEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *RespCache) moveToFrontLocked(e *respEntry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

// Len reports the number of cached entries (0 on nil).
func (c *RespCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// Stats reports the cache counters (zeros on nil).
func (c *RespCache) Stats() RespCacheStats {
	if c == nil {
		return RespCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return RespCacheStats{
		Hits:        c.hits.Value(),
		Misses:      c.misses.Value(),
		Evictions:   c.evictions.Value(),
		Stores:      c.stores.Value(),
		Entries:     c.entries.Value(),
		Bytes:       c.bytes.Value(),
		TraceBypass: c.traceBypass.Value(),
	}
}
