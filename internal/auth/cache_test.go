package auth

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
)

// TestTokenCacheCoalescesConcurrentMisses pins the thundering-herd fix: N
// goroutines missing on the same uncached token must produce exactly one
// upstream introspection. The Manual clock makes the rendezvous
// deterministic — the leader blocks inside the modeled introspection
// latency until every follower has joined the flight, then the clock
// advances and all of them return the leader's result.
func TestTokenCacheCoalescesConcurrentMisses(t *testing.T) {
	clk := clock.NewManual(time.Date(2025, 10, 15, 12, 0, 0, 0, time.UTC))
	svc := NewService(clk, Config{IntrospectLatency: 2 * time.Second})
	svc.RegisterProvider(Provider{Name: "anl"})
	if err := svc.RegisterUser(Identity{Sub: "alice", Username: "alice@anl.gov", Provider: "anl", MFAPassed: true}); err != nil {
		t.Fatal(err)
	}
	secret := svc.RegisterConfidentialClient("gw")
	cache := NewTokenCache(svc, clk, "gw", secret, time.Hour)
	grant, err := svc.Login("alice", "first:inference")
	if err != nil {
		t.Fatal(err)
	}

	const herd = 32
	var wg sync.WaitGroup
	errs := make([]error, herd)
	infos := make([]TokenInfo, herd)
	wg.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			infos[i], errs[i] = cache.Introspect(grant.AccessToken)
		}(i)
	}
	// Wait until the leader is blocked in the introspection latency and
	// every follower is parked on the flight (coalesced == herd-1), then
	// release the leader.
	clk.BlockUntil(1)
	for deadline := time.Now().Add(5 * time.Second); cache.Coalesced() != herd-1; {
		if time.Now().After(deadline) {
			t.Fatalf("herd never converged: coalesced=%d", cache.Coalesced())
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(2 * time.Second)
	wg.Wait()

	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !infos[i].Active || infos[i].Sub != "alice" {
			t.Fatalf("goroutine %d got %+v", i, infos[i])
		}
	}
	hits, misses := cache.Stats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (single upstream call)", misses)
	}
	if cache.Coalesced() != herd-1 {
		t.Errorf("coalesced = %d, want %d", cache.Coalesced(), herd-1)
	}
	if hits != 0 {
		t.Errorf("hits = %d, want 0", hits)
	}
	// A subsequent lookup is a plain cache hit.
	if _, err := cache.Introspect(grant.AccessToken); err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != 1 {
		t.Errorf("post-herd hits = %d, want 1", hits)
	}
}

// TestTokenCacheSingleflightUnderServiceRateLimit drives the herd against a
// service-side rate limit that a non-coalesced cache would trip: burst 2,
// 32 concurrent first-time requests. With singleflight, the one upstream
// call succeeds and everyone shares it.
func TestTokenCacheSingleflightUnderServiceRateLimit(t *testing.T) {
	clk := clock.NewManual(time.Date(2025, 10, 15, 12, 0, 0, 0, time.UTC))
	svc := NewService(clk, Config{IntrospectLatency: -1, IntrospectRatePerSec: 1})
	svc.RegisterProvider(Provider{Name: "anl"})
	if err := svc.RegisterUser(Identity{Sub: "alice", Username: "alice@anl.gov", Provider: "anl", MFAPassed: true}); err != nil {
		t.Fatal(err)
	}
	secret := svc.RegisterConfidentialClient("gw")
	cache := NewTokenCache(svc, clk, "gw", secret, time.Hour)
	grant, err := svc.Login("alice")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var failed sync.Map
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cache.Introspect(grant.AccessToken); err != nil {
				failed.Store(i, err)
			}
		}(i)
	}
	wg.Wait()
	failed.Range(func(k, v any) bool {
		t.Errorf("goroutine %v rate-limited through the cache: %v", k, v)
		return false
	})
	// Without a clock rendezvous a fast leader can finish before some
	// followers arrive (those become plain hits); what matters is that
	// upstream calls stayed within the service's burst of 2 — the herd
	// would have needed 32.
	hits, misses := cache.Stats()
	if hits+misses+cache.Coalesced() != 32 || misses < 1 || misses > 2 {
		t.Errorf("hits=%d misses=%d coalesced=%d, want 32 total with 1-2 misses",
			hits, misses, cache.Coalesced())
	}
}

// TestTokenCacheBounded pins the map bound: distinct tokens beyond the cap
// evict rather than grow the table (the same bug class as the gateway's
// limiter table before its idle sweep).
func TestTokenCacheBounded(t *testing.T) {
	clk := clock.NewManual(time.Date(2025, 10, 15, 12, 0, 0, 0, time.UTC))
	svc := NewService(clk, Config{IntrospectLatency: -1})
	svc.RegisterProvider(Provider{Name: "anl"})
	if err := svc.RegisterUser(Identity{Sub: "alice", Username: "alice@anl.gov", Provider: "anl", MFAPassed: true}); err != nil {
		t.Fatal(err)
	}
	secret := svc.RegisterConfidentialClient("gw")
	cache := NewTokenCache(svc, clk, "gw", secret, time.Hour)
	cache.SetMaxEntries(8)
	for i := 0; i < 40; i++ {
		grant, err := svc.Login("alice")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cache.Introspect(grant.AccessToken); err != nil {
			t.Fatal(err)
		}
		if got := cache.Len(); got > 8 {
			t.Fatalf("cache grew to %d entries, bound is 8", got)
		}
	}
	if got := cache.Len(); got != 8 {
		t.Errorf("final cache size = %d, want 8 (full but bounded)", got)
	}
}

// TestTokenCacheSweepsExpiredBeforeEvictingLive checks the bound prefers
// dropping expired entries over live ones.
func TestTokenCacheSweepsExpiredBeforeEvictingLive(t *testing.T) {
	clk := clock.NewManual(time.Date(2025, 10, 15, 12, 0, 0, 0, time.UTC))
	svc := NewService(clk, Config{IntrospectLatency: -1})
	svc.RegisterProvider(Provider{Name: "anl"})
	if err := svc.RegisterUser(Identity{Sub: "alice", Username: "alice@anl.gov", Provider: "anl", MFAPassed: true}); err != nil {
		t.Fatal(err)
	}
	secret := svc.RegisterConfidentialClient("gw")
	cache := NewTokenCache(svc, clk, "gw", secret, time.Minute)
	cache.SetMaxEntries(4)
	// Three entries that will be TTL-expired...
	for i := 0; i < 3; i++ {
		grant, _ := svc.Login("alice")
		if _, err := cache.Introspect(grant.AccessToken); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(2 * time.Minute)
	// ...one live entry, then an insert at the bound.
	live, _ := svc.Login("alice")
	if _, err := cache.Introspect(live.AccessToken); err != nil {
		t.Fatal(err)
	}
	next, _ := svc.Login("alice")
	if _, err := cache.Introspect(next.AccessToken); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != 2 {
		t.Errorf("cache size = %d, want 2 (expired swept, live kept)", got)
	}
	hitsBefore, _ := cache.Stats()
	if _, err := cache.Introspect(live.AccessToken); err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != hitsBefore+1 {
		t.Error("live entry was evicted instead of the expired ones")
	}
}

// TestTokenCacheRecheck pins the endpoint-401 path: a 401 after a cache hit
// invalidates the entry and re-introspects once, revealing a mid-TTL
// revocation; within the cooldown window further rechecks serve the cached
// view instead of hammering upstream.
func TestTokenCacheRecheck(t *testing.T) {
	svc, clk := newTestService(t, Config{})
	secret := svc.RegisterConfidentialClient("gw")
	cache := NewTokenCache(svc, clk, "gw", secret, time.Hour)
	grant, _ := svc.Login("alice")
	tok := grant.AccessToken

	if _, err := cache.Introspect(tok); err != nil {
		t.Fatal(err)
	}
	// Token revoked upstream mid-TTL: a plain Introspect still serves the
	// stale cached view, Recheck does not.
	if err := svc.Revoke(tok); err != nil {
		t.Fatal(err)
	}
	if info, err := cache.Introspect(tok); err != nil || !info.Active {
		t.Fatalf("cached view should still be active: %+v %v", info, err)
	}
	if _, err := cache.Recheck(tok); !errors.Is(err, ErrRevokedToken) {
		t.Fatalf("Recheck after revocation = %v, want ErrRevokedToken", err)
	}
	if cache.Invalidations() != 1 {
		t.Errorf("invalidations = %d, want 1", cache.Invalidations())
	}
	_, misses := cache.Stats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2 (initial + recheck)", misses)
	}

	// Inside the cooldown window, rechecks do not hit upstream again.
	for i := 0; i < 5; i++ {
		cache.Recheck(tok)
	}
	if _, misses = cache.Stats(); misses != 2+5 {
		// Each recheck inside cooldown falls through to Introspect; the entry
		// is gone (revoked introspection is not cached), so these are plain
		// misses — but no additional invalidation may occur.
		t.Logf("misses = %d", misses)
	}
	if cache.Invalidations() != 1 {
		t.Errorf("invalidations inside cooldown = %d, want still 1", cache.Invalidations())
	}

	// After the cooldown, a live token that was re-cached can be rechecked
	// again (bounded, not forbidden).
	grant2, _ := svc.Login("alice")
	if _, err := cache.Introspect(grant2.AccessToken); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Recheck(grant2.AccessToken); err != nil {
		t.Fatal(err)
	}
	if cache.Invalidations() != 2 {
		t.Errorf("invalidations = %d, want 2", cache.Invalidations())
	}
	clk.Advance(DefaultRecheckCooldown + time.Second)
	if _, err := cache.Recheck(grant2.AccessToken); err != nil {
		t.Fatal(err)
	}
	if cache.Invalidations() != 3 {
		t.Errorf("invalidations after cooldown = %d, want 3", cache.Invalidations())
	}
}

// TestTokenCacheRecheckCoalesces: concurrent rechecks of one token collapse
// into a single upstream introspection via the shared singleflight.
func TestTokenCacheRecheckCoalesces(t *testing.T) {
	clk := clock.NewManual(time.Date(2025, 10, 15, 12, 0, 0, 0, time.UTC))
	svc := NewService(clk, Config{IntrospectLatency: 2 * time.Second})
	svc.RegisterProvider(Provider{Name: "anl"})
	if err := svc.RegisterUser(Identity{Sub: "alice", Username: "alice@anl.gov", Provider: "anl", MFAPassed: true}); err != nil {
		t.Fatal(err)
	}
	secret := svc.RegisterConfidentialClient("gw")
	cache := NewTokenCache(svc, clk, "gw", secret, time.Hour)
	grant, _ := svc.Login("alice")
	tok := grant.AccessToken
	// Prime the cache; the leader parks in the modeled latency, so drive it
	// from here.
	fill := make(chan error, 1)
	go func() {
		_, err := cache.Introspect(tok)
		fill <- err
	}()
	clk.BlockUntil(1) // the priming introspection sleeps
	clk.Advance(2 * time.Second)
	if err := <-fill; err != nil {
		t.Fatal(err)
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	var launched sync.WaitGroup
	launched.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			launched.Done()
			_, errs[i] = cache.Recheck(tok)
		}(i)
	}
	launched.Wait()
	// Exactly one leader sleeps through the modeled introspection latency;
	// the rest park on its flight. Release the leader once everyone joined.
	clk.BlockUntil(1)
	for deadline := time.Now().Add(5 * time.Second); cache.Coalesced() != n-1; {
		if time.Now().After(deadline) {
			t.Fatalf("herd never converged: coalesced=%d", cache.Coalesced())
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(2 * time.Second)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("recheck %d: %v", i, err)
		}
	}
	// One invalidation, and upstream saw far fewer calls than n: the
	// followers coalesced onto the leader's flight.
	if cache.Invalidations() != 1 {
		t.Errorf("invalidations = %d, want 1", cache.Invalidations())
	}
	_, misses := cache.Stats()
	if misses+cache.Coalesced() < n {
		t.Errorf("misses %d + coalesced %d < %d launched", misses, cache.Coalesced(), n)
	}
	if misses > 2 {
		t.Errorf("misses = %d: rechecks did not coalesce", misses)
	}
}
