package gateway

// The gateway front-end — response cache, per-user rate limiters, and the
// response ID counter — is the only mutable state every request touches, so
// it is sharded: N power-of-two shards, each with its own lock, its own
// bounded LRU slice of the response cache, and its own token-bucket limiter
// table with idle-entry eviction. Requests scatter by user-sub / cache-key
// hash, so parallel handlers serialize only when they collide on a shard
// (the same single-coordinator bottleneck Pronto identifies in centralized
// federated schedulers). Shards=1 reproduces the historical single-mutex
// front-end.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/argonne-first/first/internal/clock"
)

// respKey is the response-cache key: sha256(user-sub || 0x00 || raw body).
// Keeping the raw digest (not its hex form) avoids an encode allocation on
// the hot path and makes the map key a comparable value type.
type respKey [32]byte

// keyPrefixLen is how many bytes of a keyed buffer precede the raw body.
func keyPrefixLen(sub string) int { return len(sub) + 1 }

// keyInPlace is the one definition of the key. buf holds the raw body behind
// keyPrefixLen(sub) bytes the caller left free (handleChat reads the body
// straight into such a buffer); the prefix is written and the whole buffer
// hashed in place, so deriving a key copies and allocates nothing.
//
//first:hotpath pinned by TestFrontendHotPathAllocs (frontend_test.go)
func keyInPlace(buf []byte, sub string) respKey {
	copy(buf, sub)
	buf[len(sub)] = 0
	return sha256.Sum256(buf)
}

// lruEntry is one cached response on a shard's intrusive LRU list.
// Insertion allocates; hits only splice pointers. model is the request's
// model name: a hit is served without decoding the body, and authorization
// — the one check whose answer can change between put and hit — needs it.
type lruEntry struct {
	key        respKey
	model      string
	body       []byte
	expires    time.Time
	prev, next *lruEntry
}

// userLimiter is one user's token bucket. All fields are guarded by the
// owning shard's mutex — with the front-end sharded there is no need for a
// second per-user lock, and the single-lock discipline lets the idle sweep
// read `last` safely.
type userLimiter struct {
	tokens float64
	last   time.Time
}

// frontShard is one independently locked slice of the front-end.
type frontShard struct {
	mu sync.Mutex

	// Response cache: bounded LRU (head = most recent). Replaces the old
	// wipe-the-whole-map-at-4096 behaviour, which discarded hot entries
	// together with cold ones.
	entries    map[respKey]*lruEntry
	head, tail *lruEntry
	capEntries int

	// Per-user token buckets with time-based idle eviction.
	limiters  map[string]*userLimiter
	lastSweep time.Time
}

// frontend is the sharded gateway front-end.
type frontend struct {
	clk clock.Clock

	cacheTTL time.Duration
	rate     float64 // tokens per second
	burst    float64
	idleTTL  time.Duration

	mask   uint64
	shards []*frontShard

	next atomic.Int64
}

// newFrontend builds the front-end from an already-defaulted Config.
func newFrontend(cfg Config, clk clock.Clock) *frontend {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	perShard := cfg.CacheEntries / n
	if perShard < 1 {
		perShard = 1
	}
	f := &frontend{
		clk:      clk,
		cacheTTL: cfg.CacheTTL,
		rate:     cfg.UserRatePerSec,
		burst:    cfg.UserBurst,
		idleTTL:  cfg.LimiterIdleTTL,
		mask:     uint64(n - 1),
		shards:   make([]*frontShard, n),
	}
	now := clk.Now()
	for i := range f.shards {
		f.shards[i] = &frontShard{
			entries:    make(map[respKey]*lruEntry),
			capEntries: perShard,
			limiters:   make(map[string]*userLimiter),
			lastSweep:  now,
		}
	}
	return f
}

// hashString is FNV-1a: cheap, allocation-free, and good enough to spread
// user subs uniformly over a power-of-two shard count.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hashKey folds the first 8 bytes of the (uniform) sha256 digest.
func hashKey(k respKey) uint64 {
	return binary.LittleEndian.Uint64(k[:8])
}

func (f *frontend) cacheShard(k respKey) *frontShard { return f.shards[hashKey(k)&f.mask] }
func (f *frontend) userShard(sub string) *frontShard { return f.shards[hashString(sub)&f.mask] }

// nextID hands out a process-unique response ID. The counter is atomic: ID
// generation never takes a lock.
func (f *frontend) nextID(prefix string) string {
	return fmt.Sprintf("%s-%08d", prefix, f.next.Add(1))
}

// cacheGet returns a fresh cached body and the model it answered for,
// promoting the entry to MRU. The hit path performs no allocation.
//
//first:hotpath pinned by TestFrontendHotPathAllocs (frontend_test.go)
func (f *frontend) cacheGet(key respKey) (body []byte, model string, ok bool) {
	if f.cacheTTL <= 0 {
		return nil, "", false
	}
	sh := f.cacheShard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return nil, "", false
	}
	if f.clk.Now().After(e.expires) {
		sh.unlink(e)
		delete(sh.entries, key)
		return nil, "", false
	}
	sh.toFront(e)
	return e.body, e.model, true
}

// cachePut inserts or refreshes an entry, evicting the shard's LRU tail when
// the per-shard bound is exceeded — hot entries survive insertion churn.
func (f *frontend) cachePut(key respKey, model string, body []byte) {
	if f.cacheTTL <= 0 {
		return
	}
	expires := f.clk.Now().Add(f.cacheTTL)
	sh := f.cacheShard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[key]; ok {
		e.model, e.body = model, body
		e.expires = expires
		sh.toFront(e)
		return
	}
	e := &lruEntry{key: key, model: model, body: body, expires: expires}
	sh.entries[key] = e
	sh.pushFront(e)
	for len(sh.entries) > sh.capEntries && sh.tail != nil {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
	}
}

// cacheLen reports total cached entries across shards (tests, dashboards).
func (f *frontend) cacheLen() int {
	n := 0
	for _, sh := range f.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

func (sh *frontShard) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *frontShard) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *frontShard) toFront(e *lruEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// allowUser charges one token from sub's bucket, creating it on first use.
// Buckets idle longer than idleTTL are evicted by a periodic sweep amortized
// over calls, so a storm of one-shot users cannot grow the table without
// bound. Eviction is lazy by design: a shard sweeps on its own traffic, at
// most once per idleTTL/4, scanning only its 1/N slice of the table — a
// shard that goes quiet keeps its entries until its next request (memory
// stays bounded by the arrivals before the quiet period; no background
// goroutine to manage). The steady-state path (existing bucket, no sweep
// due) allocates nothing.
//
//first:hotpath pinned by TestFrontendHotPathAllocs (frontend_test.go)
func (f *frontend) allowUser(sub string) bool {
	sh := f.userShard(sub)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Read the clock under the lock: a timestamp taken before Lock() can be
	// stale by the time we hold the shard, moving lim.last backward and
	// re-crediting refill time a concurrent call already granted.
	now := f.clk.Now()
	lim, ok := sh.limiters[sub]
	if !ok {
		//firstlint:allow hotpath first-touch limiter allocation; the 0-alloc pin measures the steady state where the user's limiter already exists
		lim = &userLimiter{tokens: f.burst, last: now}
		sh.limiters[sub] = lim
	}
	if f.idleTTL > 0 && now.Sub(sh.lastSweep) >= f.idleTTL/4 {
		f.sweepLocked(sh, now)
	}
	elapsed := now.Sub(lim.last).Seconds()
	if elapsed > 0 {
		lim.tokens += elapsed * f.rate
		if lim.tokens > f.burst {
			lim.tokens = f.burst
		}
	}
	lim.last = now
	if lim.tokens >= 1 {
		lim.tokens--
		return true
	}
	return false
}

// sweepLocked drops buckets idle past the TTL — but only once the bucket's
// natural refill would have reached full burst, so eviction is always
// equivalent to keeping the bucket: a returning user gets exactly what the
// retained state would have granted. Without that check, configs where
// burst exceeds rate×idleTTL would let a spent-out user reset their debt by
// idling one TTL. (rate <= 0 means the limiter is disabled and allowUser is
// never called on this path; TTL alone decides then.)
func (f *frontend) sweepLocked(sh *frontShard, now time.Time) {
	sh.lastSweep = now
	for sub, lim := range sh.limiters {
		idle := now.Sub(lim.last)
		if idle <= f.idleTTL {
			continue
		}
		if f.rate > 0 && lim.tokens+idle.Seconds()*f.rate < f.burst {
			continue // still in debt: a fresh bucket would over-credit
		}
		delete(sh.limiters, sub)
	}
}

// limiterLen reports total live buckets across shards (tests, dashboards).
func (f *frontend) limiterLen() int {
	n := 0
	for _, sh := range f.shards {
		sh.mu.Lock()
		n += len(sh.limiters)
		sh.mu.Unlock()
	}
	return n
}
