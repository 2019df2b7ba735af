package service

import (
	"container/list"
	"encoding/json"
	"hash/fnv"
	"strconv"
	"sync"
	"time"
)

// cachedAnswer is one immutable cache value: the structured payload plus
// its pre-rendered JSON encoding and a strong ETag over those bytes.
// Rendering once at insert time is what makes a cache hit allocation-free —
// handlers splice the per-request trailer ("cached"/"stale"/"elapsed_ms")
// onto rendered instead of re-encoding the struct, and conditional requests
// short-circuit to 304 on an ETag match without touching the body at all.
type cachedAnswer struct {
	payload  *answerPayload
	rendered []byte // json.Marshal(payload)
	etag     string // strong ETag: fnv64a over rendered, quoted
}

// newCachedAnswer renders a payload for caching; nil when it does not
// marshal (not reachable for answerPayload), since re-encoding it per hit
// would fail the same way.
func newCachedAnswer(p *answerPayload) *cachedAnswer {
	b, err := json.Marshal(p)
	if err != nil {
		return nil
	}
	h := fnv.New64a()
	h.Write(b)
	return &cachedAnswer{payload: p, rendered: b, etag: `"` + strconv.FormatUint(h.Sum64(), 16) + `"`}
}

// lruCache is a fixed-capacity LRU map from cache key to a finished answer
// payload, with an optional TTL. Entries past the TTL are *kept* (until
// LRU-evicted) and reported expired rather than deleted: when the source's
// circuit breaker is open, the service serves them with "stale": true —
// degraded freshness beats no answer against a source we don't control.
// Entries are immutable once inserted: handlers serialize straight from the
// stored rendered bytes, so a hit costs one map lookup and one list move.
// Safe for concurrent use.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ttl   time.Duration // 0 = entries never expire
	ll    *list.List    // front = most recently used
	byKey map[string]*list.Element
}

type lruEntry struct {
	key      string
	val      *cachedAnswer
	storedAt time.Time
}

func newLRUCache(capacity int, ttl time.Duration) *lruCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &lruCache{cap: capacity, ttl: ttl, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the cached answer for key, promoting it to most recently
// used. expired reports whether the entry has outlived the TTL; callers
// decide whether a stale payload is servable (breaker open) or a miss.
func (c *lruCache) Get(key string) (val *cachedAnswer, expired, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.byKey[key]
	if !found {
		return nil, false, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*lruEntry)
	expired = c.ttl > 0 && time.Since(e.storedAt) > c.ttl
	return e.val, expired, true
}

// Contains reports whether key is cached, without promoting it.
func (c *lruCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}

// Add renders and inserts (or refreshes) key, evicting the least recently
// used entry when over capacity. Refreshing restamps the entry's age. A
// payload that does not render is not cached.
func (c *lruCache) Add(key string, val *answerPayload) {
	ca := newCachedAnswer(val)
	if ca == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		e.val = ca
		e.storedAt = time.Now()
		return
	}
	c.byKey[key] = c.ll.PushFront(&lruEntry{key: key, val: ca, storedAt: time.Now()})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry).key)
	}
}

// Flush drops every entry. Called on model promote: old-generation entries
// are already unreachable (keys are generation-scoped), flushing returns
// their memory and keeps the cache-entries gauge honest.
func (c *lruCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.byKey)
}

// Len reports the number of cached entries (expired ones included).
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// hottest returns up to max cached payloads in LRU order (most recently
// used first; max <= 0 means all). Used by the cache-warming snapshot.
func (c *lruCache) hottest(max int) []*answerPayload {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	if max > 0 && max < n {
		n = max
	}
	out := make([]*answerPayload, 0, n)
	for el := c.ll.Front(); el != nil && len(out) < n; el = el.Next() {
		out = append(out, el.Value.(*lruEntry).val.payload)
	}
	return out
}

// rawIndex maps the raw URL query string of a previously answered GET
// /answer request to its canonical cache key, so repeat requests skip URL
// parsing, query parsing and key normalization entirely. It is a bounded
// map, flushed wholesale when full — entries are rebuilt by the next slow
// pass, so eviction precision is not worth LRU bookkeeping here.
type rawIndex struct {
	mu   sync.Mutex
	cap  int
	keys map[string]string
}

func newRawIndex(capacity int) *rawIndex {
	if capacity <= 0 {
		capacity = 1024
	}
	return &rawIndex{cap: capacity, keys: make(map[string]string)}
}

func (x *rawIndex) get(raw string) (string, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	k, ok := x.keys[raw]
	return k, ok
}

// flush empties the index (model promote: the mapped cache keys belong to a
// dead generation).
func (x *rawIndex) flush() {
	x.mu.Lock()
	defer x.mu.Unlock()
	clear(x.keys)
}

func (x *rawIndex) put(raw, key string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.keys) >= x.cap {
		clear(x.keys)
	}
	x.keys[raw] = key
}
