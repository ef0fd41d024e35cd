package auth

import (
	"sync"
	"time"

	"github.com/argonne-first/first/internal/clock"
)

// DefaultCacheEntries bounds the token cache: far above any realistic live
// token population (tokens live 48 h), low enough that an attacker spraying
// garbage bearer tokens cannot grow the map without limit.
const DefaultCacheEntries = 16384

// TokenCache memoizes introspection results — Optimization 2 (§5.3.1):
// "these repetitive steps are now cached for frequently incoming requests.
// This eliminated 2 s from the latency of each request and prevented our
// framework from being rate-limited by the Globus services."
//
// Concurrent misses on the same token coalesce (singleflight): exactly one
// goroutine performs the live (latency-charged, rate-limited) introspection
// while the rest wait for its result. Without this, N parallel requests
// carrying the same uncached token each paid the ~2 s round trip and
// together could trip the Globus-side rate limit — the very failure mode
// the cache exists to prevent.
type TokenCache struct {
	svc          *Service
	clk          clock.Clock
	clientID     string
	clientSecret string
	ttl          time.Duration

	mu            sync.Mutex
	entries       map[string]cachedInfo
	maxEntries    int
	flight        map[string]*flightCall
	hits          int64
	misses        int64
	coalesced     int64
	invalidations int64
	rechecked     map[string]time.Time
}

type cachedInfo struct {
	info    TokenInfo
	expires time.Time
}

// flightCall is one in-progress upstream introspection; followers block on
// done and read info/err afterwards (written before done closes).
type flightCall struct {
	done chan struct{}
	info TokenInfo
	err  error
}

// NewTokenCache wraps a service with per-token caching (entries live for
// ttl or until the token itself expires, whichever is sooner; the map is
// bounded at DefaultCacheEntries — see SetMaxEntries).
func NewTokenCache(svc *Service, clk clock.Clock, clientID, clientSecret string, ttl time.Duration) *TokenCache {
	if ttl <= 0 {
		ttl = 10 * time.Minute
	}
	return &TokenCache{
		svc: svc, clk: clk,
		clientID: clientID, clientSecret: clientSecret,
		ttl:        ttl,
		entries:    make(map[string]cachedInfo),
		maxEntries: DefaultCacheEntries,
		flight:     make(map[string]*flightCall),
		rechecked:  make(map[string]time.Time),
	}
}

// SetMaxEntries adjusts the cache bound (n <= 0 restores the default).
func (c *TokenCache) SetMaxEntries(n int) {
	if n <= 0 {
		n = DefaultCacheEntries
	}
	c.mu.Lock()
	c.maxEntries = n
	c.mu.Unlock()
}

// Introspect returns the cached result when fresh; otherwise it joins the
// in-flight upstream call for this token, or becomes its leader.
func (c *TokenCache) Introspect(token string) (TokenInfo, error) {
	now := c.clk.Now()
	c.mu.Lock()
	if e, ok := c.entries[token]; ok && now.Before(e.expires) && now.Before(e.info.Expiry) {
		c.hits++
		c.mu.Unlock()
		return e.info, nil
	}
	if f, ok := c.flight[token]; ok {
		c.coalesced++
		c.mu.Unlock()
		<-f.done
		return f.info, f.err
	}
	c.misses++
	f := &flightCall{done: make(chan struct{})}
	c.flight[token] = f
	c.mu.Unlock()

	f.info, f.err = c.svc.Introspect(c.clientID, c.clientSecret, token)
	c.mu.Lock()
	delete(c.flight, token)
	if f.err == nil {
		c.storeLocked(token, f.info)
	}
	c.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return TokenInfo{}, f.err
	}
	return f.info, nil
}

// storeLocked inserts a fresh entry, keeping the map under its bound: when
// full it first sweeps entries whose TTL or token already expired, then — if
// the population is all-live — evicts arbitrary entries. Eviction of a live
// entry only costs a future re-introspection; it never serves stale data.
func (c *TokenCache) storeLocked(token string, info TokenInfo) {
	now := c.clk.Now()
	if len(c.entries) >= c.maxEntries {
		for t, e := range c.entries {
			if !now.Before(e.expires) || !now.Before(e.info.Expiry) {
				delete(c.entries, t)
			}
		}
		for t := range c.entries {
			if len(c.entries) < c.maxEntries {
				break
			}
			delete(c.entries, t)
		}
	}
	c.entries[token] = cachedInfo{info: info, expires: now.Add(c.ttl)}
}

// Invalidate drops a token from the cache (e.g. after revocation).
func (c *TokenCache) Invalidate(token string) {
	c.mu.Lock()
	if _, ok := c.entries[token]; ok {
		c.invalidations++
	}
	delete(c.entries, token)
	c.mu.Unlock()
}

// DefaultRecheckCooldown bounds endpoint-triggered rechecks: a token that an
// endpoint keeps rejecting with 401 re-introspects at most once per cooldown
// window, so a misbehaving endpoint cannot turn the cache into a pass-through
// and re-create the rate-limit problem the cache exists to prevent.
const DefaultRecheckCooldown = 30 * time.Second

// Recheck handles an endpoint-side 401 that arrived after a gateway-side
// cache hit: the cached introspection may be stale (token revoked upstream
// mid-TTL). At most once per cooldown window per token it invalidates the
// entry and re-introspects live — coalesced through the same singleflight as
// ordinary misses — and returns the fresh result. Inside the cooldown window
// it serves the cached view unchanged, bounding upstream traffic no matter
// how often endpoints reject.
func (c *TokenCache) Recheck(token string) (TokenInfo, error) {
	now := c.clk.Now()
	c.mu.Lock()
	if last, ok := c.rechecked[token]; ok && now.Sub(last) < DefaultRecheckCooldown {
		c.mu.Unlock()
		return c.Introspect(token)
	}
	// Sweep stale cooldown stamps so the map stays bounded by the live
	// token population rather than growing per garbage token.
	if len(c.rechecked) >= c.maxEntries {
		for t, at := range c.rechecked {
			if now.Sub(at) >= DefaultRecheckCooldown {
				delete(c.rechecked, t)
			}
		}
	}
	c.rechecked[token] = now
	if _, ok := c.entries[token]; ok {
		c.invalidations++
		delete(c.entries, token)
	}
	c.mu.Unlock()
	return c.Introspect(token)
}

// Invalidations reports entries dropped by Invalidate/Recheck (gauge feed).
func (c *TokenCache) Invalidations() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invalidations
}

// Len reports the current entry count (tests, dashboards).
func (c *TokenCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats reports hit/miss counters. Coalesced followers count as neither:
// they missed the cache but triggered no upstream call (see Coalesced).
func (c *TokenCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Coalesced reports how many lookups joined another goroutine's in-flight
// introspection instead of calling upstream.
func (c *TokenCache) Coalesced() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coalesced
}

// Policy decides whether an introspected identity may use a model — the
// Globus-Groups role-based control of §3.1.2 (e.g. "researchers working on
// sensitive projects may be granted special access to specific models").
type Policy struct {
	mu sync.RWMutex
	// requiredGroup[model] = group that must contain the user; models
	// without an entry are open to any authenticated identity holding the
	// base scope.
	requiredGroup map[string]string
	baseScope     string
}

// NewPolicy returns a policy requiring baseScope on every request.
func NewPolicy(baseScope string) *Policy {
	return &Policy{requiredGroup: make(map[string]string), baseScope: baseScope}
}

// Restrict limits a model to members of group.
func (p *Policy) Restrict(model, group string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requiredGroup[model] = group
}

// Authorize checks scope and group membership for a model.
func (p *Policy) Authorize(info TokenInfo, model string) error {
	if !info.Active {
		return ErrInvalidToken
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.baseScope != "" && !info.HasScope(p.baseScope) {
		return ErrDenied
	}
	group, restricted := p.requiredGroup[model]
	if !restricted {
		return nil
	}
	for _, g := range info.Groups {
		if g == group {
			return nil
		}
	}
	return ErrDenied
}
