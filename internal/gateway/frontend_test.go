package gateway

import (
	"crypto/sha256"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
)

func testFrontend(cfg Config, clk clock.Clock) *frontend {
	cfg.applyDefaults()
	return newFrontend(cfg, clk)
}

// keyedBuf lays body out the way handleChat reads it: behind the free prefix
// keyInPlace fills in.
func keyedBuf(sub string, body []byte) []byte {
	return append(make([]byte, keyPrefixLen(sub), keyPrefixLen(sub)+len(body)), body...)
}

// keyFor derives a key through the handler's own helper.
func keyFor(sub string, body []byte) respKey { return keyInPlace(keyedBuf(sub, body), sub) }

func keyOf(i int) respKey {
	return keyFor("sub", []byte("body-"+strconv.Itoa(i)))
}

// CacheLen exposes the response cache's population to the handler-level
// tests, which live in package gateway_test because they boot a core.System.
func (s *Server) CacheLen() int { return s.fe.cacheLen() }

// TestCacheKeyDefinition pins the key as sha256(sub ‖ 0x00 ‖ body) — the
// definition the copying helper this one replaced had — and the separator's
// job: no (sub, body) pair shares a key with a shifted split of its bytes.
func TestCacheKeyDefinition(t *testing.T) {
	body := []byte(`{"model":"m"}`)
	if got, want := keyFor("alice", body), sha256.Sum256(append([]byte("alice\x00"), body...)); got != want {
		t.Errorf("key = %x, want sha256(sub ‖ 0 ‖ body) = %x", got, want)
	}
	if keyFor("ab", []byte("c")) == keyFor("a", []byte("bc")) {
		t.Error("shifting a byte from sub to body kept the key")
	}
	if keyFor("alice", body) == keyFor("bob", body) {
		t.Error("two users share a key for the same body")
	}
}

// TestCacheHotEntriesSurviveChurn is the eviction-bug regression test: the
// old front-end wiped the whole response cache when it crossed 4096 entries,
// discarding hot entries with cold ones. The per-shard LRU must keep a
// continuously touched entry alive through arbitrary insertion churn.
func TestCacheHotEntriesSurviveChurn(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	fe := testFrontend(Config{CacheTTL: time.Hour, Shards: 1}, clk)

	hot := keyFor("sub", []byte("the hot request"))
	fe.cachePut(hot, "hot-model", []byte("hot response"))
	for i := 0; i < 20000; i++ {
		fe.cachePut(keyOf(i), "m", []byte("cold"))
		if i%100 == 0 {
			if _, _, ok := fe.cacheGet(hot); !ok {
				t.Fatalf("hot entry evicted after %d cold inserts", i)
			}
		}
	}
	if body, model, ok := fe.cacheGet(hot); !ok || string(body) != "hot response" || model != "hot-model" {
		t.Errorf("hot entry lost after churn: ok=%v body=%q model=%q", ok, body, model)
	}
	if n := fe.cacheLen(); n > 4096 {
		t.Errorf("cache grew to %d entries, want ≤ 4096", n)
	}
}

// TestCacheBoundHoldsAcrossShards checks the bound is global: CacheEntries
// splits over shards and total occupancy never exceeds it.
func TestCacheBoundHoldsAcrossShards(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	fe := testFrontend(Config{CacheTTL: time.Hour, Shards: 8, CacheEntries: 1024}, clk)
	for i := 0; i < 10000; i++ {
		fe.cachePut(keyOf(i), "m", []byte("x"))
	}
	if n := fe.cacheLen(); n > 1024 {
		t.Errorf("cache holds %d entries, want ≤ 1024", n)
	}
}

// TestCacheTTLExpiry checks expired entries miss and are dropped.
func TestCacheTTLExpiry(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	fe := testFrontend(Config{CacheTTL: time.Minute, Shards: 2}, clk)
	k := keyOf(1)
	fe.cachePut(k, "m", []byte("fresh"))
	if _, _, ok := fe.cacheGet(k); !ok {
		t.Fatal("fresh entry missing")
	}
	clk.Advance(2 * time.Minute)
	if _, _, ok := fe.cacheGet(k); ok {
		t.Error("expired entry served")
	}
	if n := fe.cacheLen(); n != 0 {
		t.Errorf("expired entry retained (%d entries)", n)
	}
}

// TestLimiterIdleEviction is the unbounded-growth regression test: a storm
// of a million distinct one-shot subs must not retain a million limiter
// entries — idle buckets get swept once they pass the idle TTL.
func TestLimiterIdleEviction(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	fe := testFrontend(Config{
		UserRatePerSec: 1,
		Shards:         16,
		LimiterIdleTTL: time.Minute,
	}, clk)

	const (
		batches   = 100
		batchSize = 10000 // batches × batchSize = 10⁶ distinct subs
	)
	for b := 0; b < batches; b++ {
		base := b * batchSize
		for i := 0; i < batchSize; i++ {
			if !fe.allowUser("sub-" + strconv.Itoa(base+i)) {
				t.Fatalf("fresh sub rejected (burst should cover the first request)")
			}
		}
		clk.Advance(2 * time.Minute) // every bucket in this batch goes idle
	}
	if n := fe.limiterLen(); n > 2*batchSize {
		t.Errorf("limiter table holds %d entries after 10⁶ one-shot subs, want ≤ %d", n, 2*batchSize)
	}
}

// TestLimiterActiveUsersSurviveSweep checks eviction is idle-based, not
// wholesale: a user who keeps talking through the storm keeps their bucket
// (and the rate state in it).
func TestLimiterActiveUsersSurviveSweep(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	fe := testFrontend(Config{
		UserRatePerSec: 100,
		Shards:         4,
		LimiterIdleTTL: time.Minute,
	}, clk)
	for b := 0; b < 20; b++ {
		fe.allowUser("regular")
		for i := 0; i < 100; i++ {
			fe.allowUser("oneshot-" + strconv.Itoa(b*100+i))
		}
		clk.Advance(30 * time.Second) // under the idle TTL for "regular"
	}
	sh := fe.userShard("regular")
	sh.mu.Lock()
	_, ok := sh.limiters["regular"]
	sh.mu.Unlock()
	if !ok {
		t.Error("active user's bucket was swept")
	}
}

// TestLimiterSweepKeepsDebt pins the eviction-equivalence invariant: when
// burst exceeds rate×idleTTL, a spent-out user must not reset their debt by
// idling one TTL — the bucket survives until natural refill would have
// reached full burst anyway.
func TestLimiterSweepKeepsDebt(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	fe := testFrontend(Config{
		UserRatePerSec: 0.1, // refill 6 tokens/minute...
		UserBurst:      500, // ...against a 500-token burst
		Shards:         1,
		LimiterIdleTTL: time.Minute,
	}, clk)
	for i := 0; i < 500; i++ {
		if !fe.allowUser("spender") {
			t.Fatalf("burst exhausted early at %d", i)
		}
	}
	if fe.allowUser("spender") {
		t.Fatal("allowed past burst")
	}
	// Idle past the TTL (needs other traffic to trigger the sweep), then
	// return: refill granted ~0.1/s × 120 s = 12 tokens, not a fresh 500.
	clk.Advance(2 * time.Minute)
	fe.allowUser("bystander")
	var allowed int
	for i := 0; i < 500; i++ {
		if fe.allowUser("spender") {
			allowed++
		}
	}
	if allowed > 13 {
		t.Errorf("idling past the TTL re-credited %d tokens, want ≤ ~12 (rate×idle)", allowed)
	}
}

// TestNextIDUniqueUnderConcurrency: response IDs come from an atomic
// counter; no two goroutines may ever observe the same ID.
func TestNextIDUniqueUnderConcurrency(t *testing.T) {
	fe := testFrontend(Config{}, clock.NewReal())
	const workers, perWorker = 8, 10000
	got := make([][]string, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			ids := make([]string, perWorker)
			for i := range ids {
				ids[i] = fe.nextID("chatcmpl")
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	seen := make(map[string]bool, workers*perWorker)
	for _, ids := range got {
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("duplicate response ID %q", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != workers*perWorker {
		t.Errorf("got %d unique IDs, want %d", len(seen), workers*perWorker)
	}
}

// TestFrontendHotPathAllocs pins the sharded hot path's allocation budget,
// matching the engine/kernel alloc regression tests: the limiter check, a
// cache hit, and the full cache path (key hash included) on a caller-owned
// buffer — what handleChat does with the buffer it read the body into — all
// allocate nothing.
func TestFrontendHotPathAllocs(t *testing.T) {
	fe := testFrontend(Config{
		CacheTTL:       time.Hour,
		UserRatePerSec: 1e9, // refill outruns the loop: the limiter never rejects
	}, clock.NewReal())

	if got := testing.AllocsPerRun(1000, func() {
		if !fe.allowUser("hot-user") {
			t.Fatal("limiter rejected under infinite refill")
		}
	}); got != 0 {
		t.Errorf("allowUser allocates %.1f/op, want 0", got)
	}

	body := []byte(`{"model":"m","messages":[{"role":"user","content":"hi"}]}`)
	buf := keyedBuf("hot-user", body)
	key := keyInPlace(buf, "hot-user")
	fe.cachePut(key, "m", []byte("cached response"))
	if got := testing.AllocsPerRun(1000, func() {
		if _, _, ok := fe.cacheGet(key); !ok {
			t.Fatal("cache miss on warm key")
		}
	}); got != 0 {
		t.Errorf("cacheGet hit allocates %.1f/op, want 0", got)
	}

	if got := testing.AllocsPerRun(1000, func() {
		if _, _, ok := fe.cacheGet(keyInPlace(buf, "hot-user")); !ok {
			t.Fatal("cache miss on warm key")
		}
	}); got != 0 {
		t.Errorf("keyInPlace+cacheGet allocates %.1f/op, want 0 (hashed in place)", got)
	}
}

// TestFrontendConcurrentMixedOps drives every front-end operation from
// parallel goroutines across overlapping keys and subs — the -race target
// for shard lock coverage.
func TestFrontendConcurrentMixedOps(t *testing.T) {
	fe := testFrontend(Config{
		CacheTTL:       time.Hour,
		UserRatePerSec: 50,
		CacheEntries:   512,
	}, clock.NewReal())
	const workers, iters = 16, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := keyOf(i % 64)
				switch i % 4 {
				case 0:
					fe.cachePut(k, "m", []byte("v"))
				case 1:
					fe.cacheGet(k)
				case 2:
					fe.allowUser("user-" + strconv.Itoa((w+i)%32))
				case 3:
					fe.nextID("cmpl")
				}
			}
		}(w)
	}
	wg.Wait()
	if n := fe.cacheLen(); n > 512 {
		t.Errorf("cache bound violated under concurrency: %d entries", n)
	}
}

// TestConfigShardRounding checks the knob's contract: 0 derives from
// GOMAXPROCS, any request rounds up to a power of two, 1 stays 1.
func TestConfigShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		cfg := Config{Shards: tc.in}
		cfg.applyDefaults()
		if cfg.Shards != tc.want {
			t.Errorf("Shards %d → %d, want %d", tc.in, cfg.Shards, tc.want)
		}
	}
	cfg := Config{}
	cfg.applyDefaults()
	if cfg.Shards < 1 || cfg.Shards&(cfg.Shards-1) != 0 {
		t.Errorf("default Shards = %d, want a power of two ≥ 1", cfg.Shards)
	}
	if cfg.LimiterIdleTTL != 15*time.Minute {
		t.Errorf("default LimiterIdleTTL = %v", cfg.LimiterIdleTTL)
	}
	if cfg.CacheEntries != 4096 {
		t.Errorf("default CacheEntries = %d", cfg.CacheEntries)
	}
}
