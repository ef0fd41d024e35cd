package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/core"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/gateway"
	"github.com/argonne-first/first/internal/perfmodel"
)

// stressFixture boots a testbed and logs in n distinct users.
func stressFixture(t *testing.T, cfg gateway.Config, clockScale int64, n int) (*core.System, []string) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{
		Clock: clock.NewScaled(clockScale),
		Clusters: []core.ClusterSpec{
			{Name: "sophia", Nodes: 4, GPUsPerNode: 8},
		},
		Deployments: []core.DeploymentSpec{
			{Model: perfmodel.Llama8B, Clusters: []string{"sophia"},
				Config: fabric.DeploymentConfig{MinInstances: 1, MaxInstances: 1}},
		},
		Gateway: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	tokens := make([]string, n)
	for i := range tokens {
		sub := fmt.Sprintf("stress-u%d", i)
		if err := sys.RegisterUser(sub, sub+"@anl.gov"); err != nil {
			t.Fatal(err)
		}
		grant, err := sys.Login(sub)
		if err != nil {
			t.Fatal(err)
		}
		tokens[i] = grant.AccessToken
	}
	return sys, tokens
}

// holdInfer registers FnInfer on every endpoint of sys with a handler that
// serves the request through the real deployment path, as livefed's armed
// endpoints do, from inside around: a test holds requests at the endpoint,
// inside the gateway's admission, for as long as it needs.
func holdInfer(sys *core.System, around func(serve func())) {
	for _, ep := range sys.Endpoints {
		ep.RegisterFunction(fabric.FnInfer, func(ctx context.Context, payload any) (res any, err error) {
			req, err := fabric.InferPayload(payload)
			if err != nil {
				return nil, err
			}
			d, ok := ep.Deployment(req.Model)
			if !ok {
				return nil, fmt.Errorf("endpoint %s does not host %s", ep.ID(), req.Model)
			}
			around(func() { res, err = d.Generate(ctx, req) })
			return res, err
		})
	}
}

// TestGatewayParallelStress fires authenticated requests from parallel
// goroutines across front-end shards and asserts the invariants the sharding
// must preserve: cache hits still hit, rate limiting still rejects, the
// overload window still 503s, and response IDs stay process-unique. Run
// under `make race` this is the front-end's data-race gate.
func TestGatewayParallelStress(t *testing.T) {
	t.Run("cache-hits-and-unique-ids", func(t *testing.T) {
		const users, perUser = 12, 14
		sys, tokens := stressFixture(t, gateway.Config{
			CacheTTL:       time.Hour,
			UserRatePerSec: 1000, // exercised on every request, never rejects
			Shards:         8,
		}, 20000, users)

		type result struct {
			code   int
			id     string
			cached bool
		}
		results := make([][]result, users)
		var wg sync.WaitGroup
		wg.Add(users)
		for u := 0; u < users; u++ {
			go func(u int) {
				defer wg.Done()
				shared := `{"model":"` + perfmodel.Llama8B + `","messages":[{"role":"user","content":"storm question"}],"max_tokens":4}`
				out := make([]result, 0, perUser)
				for i := 0; i < perUser; i++ {
					body := shared
					if i%2 == 1 { // odd iterations: unique body → unique response ID
						body = fmt.Sprintf(`{"model":"%s","messages":[{"role":"user","content":"unique %d-%d"}],"max_tokens":4}`, perfmodel.Llama8B, u, i)
					}
					rec := doRaw(t, sys, "POST", "/v1/chat/completions", tokens[u], body)
					r := result{code: rec.Code, cached: rec.Header().Get("X-First-Cache") == "hit"}
					if rec.Code == http.StatusOK {
						var resp struct {
							ID string `json:"id"`
						}
						if err := json.Unmarshal(rec.Body.Bytes(), &resp); err == nil {
							r.id = resp.ID
						}
					}
					out = append(out, r)
				}
				results[u] = out
			}(u)
		}
		wg.Wait()

		ids := make(map[string]int)
		var hits int
		for u, out := range results {
			for i, r := range out {
				if r.code != http.StatusOK {
					t.Errorf("user %d req %d: code %d, want 200", u, i, r.code)
				}
				if r.cached {
					hits++
					continue // a cache hit replays a stored body: same ID by design
				}
				if r.id == "" {
					t.Errorf("user %d req %d: 200 without an id", u, i)
					continue
				}
				ids[r.id]++
			}
		}
		for id, n := range ids {
			if n > 1 {
				t.Errorf("response ID %q issued %d times", id, n)
			}
		}
		// Each user's shared body repeats sequentially after its first
		// completion; the cache key is user-scoped, so hits must show up.
		if hits == 0 {
			t.Error("no cache hits across the parallel run")
		}
		if got := sys.Gateway.Metrics().Counter("cache_hits").Value(); got < int64(hits) {
			t.Errorf("cache_hits counter %d < observed hits %d", got, hits)
		}
	})

	// Hits, misses and streams of different lengths interleave across 16
	// users, all of whom send the same byte strings. Every request reads its
	// body into a buffer of its own and every hit writes a stored reply, so
	// a reply served from memory another request has since reused, or from
	// another user's entry, shows as a 200 that differs from the reply first
	// recorded for that (user, body).
	t.Run("hits-repeat-the-first-reply", func(t *testing.T) {
		const users, rounds, bodies = 16, 4, 6
		sys, tokens := stressFixture(t, gateway.Config{CacheTTL: 40 * time.Hour, Shards: 8}, 2000, users)
		var wg sync.WaitGroup
		wg.Add(users)
		for u := 0; u < users; u++ {
			go func(u int) {
				defer wg.Done()
				first := make(map[string][]byte)
				for round := 0; round < rounds; round++ {
					for b := 0; b < bodies; b++ {
						content, extra := fmt.Sprintf("body %d%s", b, strings.Repeat(" pad", b*b*8)), ""
						switch b % 3 {
						case 1: // new bytes every round: always a miss
							content += fmt.Sprintf(" round %d", round)
						case 2:
							extra = `,"stream":true`
						}
						body := fmt.Sprintf(`{"model":"%s","messages":[{"role":"user","content":"%s"}],"max_tokens":4%s}`, perfmodel.Llama8B, content, extra)
						rec := doRaw(t, sys, "POST", "/v1/chat/completions", tokens[u], body)
						hit := rec.Header().Get("X-First-Cache") == "hit"
						want, seen := first[body]
						switch {
						case rec.Code != http.StatusOK:
							t.Errorf("user %d round %d body %d: code %d", u, round, b, rec.Code)
						case extra != "":
							if hit || !strings.HasSuffix(rec.Body.String(), "data: [DONE]\n\n") {
								t.Errorf("user %d round %d body %d: stream hit=%v, tail %q", u, round, b, hit, rec.Body.String())
							}
						case !seen:
							if hit {
								t.Errorf("user %d round %d body %d: hit on bytes this user never sent", u, round, b)
							}
							first[body] = rec.Body.Bytes()
						case !hit || !bytes.Equal(rec.Body.Bytes(), want):
							t.Errorf("user %d round %d body %d: hit=%v\n got %s\nwant %s", u, round, b, hit, rec.Body, want)
						}
					}
				}
			}(u)
		}
		wg.Wait()
		// Per user, bodies 0 and 3 repeat: one miss, then a hit per round.
		if got, want := sys.Gateway.Metrics().Counter("cache_hits").Value(), int64(users*2*(rounds-1)); got != want {
			t.Errorf("cache_hits = %d, want %d", got, want)
		}
	})

	t.Run("rate-limit-rejections", func(t *testing.T) {
		const users, perUser = 8, 10
		sys, tokens := stressFixture(t, gateway.Config{
			UserRatePerSec: 0.0001, // refill is negligible: burst then reject
			UserBurst:      1,
			Shards:         8,
		}, 20000, users)
		limited := make([]int, users)
		var wg sync.WaitGroup
		wg.Add(users)
		for u := 0; u < users; u++ {
			go func(u int) {
				defer wg.Done()
				for i := 0; i < perUser; i++ {
					rec := doRaw(t, sys, "GET", "/v1/models", tokens[u], "")
					switch rec.Code {
					case http.StatusOK:
					case http.StatusTooManyRequests:
						limited[u]++
					default:
						t.Errorf("user %d: code %d", u, rec.Code)
					}
				}
			}(u)
		}
		wg.Wait()
		for u, n := range limited {
			if n < perUser/2 {
				t.Errorf("user %d: %d/%d rate-limited, want ≥ %d (burst 1)", u, n, perUser, perUser/2)
			}
		}
		if sys.Gateway.Metrics().Counter("rate_limited").Value() == 0 {
			t.Error("rate_limited counter never incremented")
		}
	})

	t.Run("overload-503", func(t *testing.T) {
		const workers, perWorker = 16, 6
		sys, tokens := stressFixture(t, gateway.Config{InFlightLimit: 2, Shards: 4}, 1000, workers)
		// The endpoint holds every request until the first 503, so the two
		// in-flight slots stay taken while the other clients arrive.
		var shed sync.Once
		released := make(chan struct{})
		holdInfer(sys, func(serve func()) {
			select {
			case <-released:
			case <-time.After(10 * time.Second):
			}
			serve()
		})
		var mu sync.Mutex
		var overloaded, ok int
		var wg sync.WaitGroup
		wg.Add(workers)
		for u := 0; u < workers; u++ {
			go func(u int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					body := fmt.Sprintf(`{"model":"%s","messages":[{"role":"user","content":"overload %d %d"}],"max_tokens":4}`, perfmodel.Llama8B, u, i)
					rec := doRaw(t, sys, "POST", "/v1/chat/completions", tokens[u], body)
					mu.Lock()
					switch rec.Code {
					case http.StatusOK:
						ok++
					case http.StatusServiceUnavailable:
						overloaded++
						shed.Do(func() { close(released) })
					default:
						t.Errorf("user %d: code %d, want 200 or 503", u, rec.Code)
					}
					mu.Unlock()
				}
			}(u)
		}
		wg.Wait()
		if ok == 0 {
			t.Error("no request made it through the overload window")
		}
		if overloaded == 0 {
			t.Error("no 503 with a 2-slot window under 16 parallel clients")
		}
		if got := sys.Gateway.Metrics().Counter("overloaded").Value(); got != int64(overloaded) {
			t.Errorf("overloaded counter %d, observed %d", got, overloaded)
		}
	})
}

// TestShardsOneReproducesSingleLockBehaviour pins the compatibility knob:
// with Shards=1 the gateway behaves exactly like the historical single-lock
// front-end on the same request sequence (cache hit on repeat, limiter
// burst accounting).
func TestShardsOneReproducesSingleLockBehaviour(t *testing.T) {
	sys, tokens := stressFixture(t, gateway.Config{
		CacheTTL:       time.Hour,
		UserRatePerSec: 0.0001,
		UserBurst:      3,
		Shards:         1,
	}, 20000, 1)
	body := `{"model":"` + perfmodel.Llama8B + `","messages":[{"role":"user","content":"single lock"}],"max_tokens":4}`
	codes := make([]int, 0, 6)
	var hits int
	for i := 0; i < 6; i++ {
		rec := doRaw(t, sys, "POST", "/v1/chat/completions", tokens[0], body)
		codes = append(codes, rec.Code)
		if rec.Header().Get("X-First-Cache") == "hit" {
			hits++
		}
	}
	// Burst 3: three admitted (first computes, next two replay from cache),
	// then rejections.
	want := []int{200, 200, 200, 429, 429, 429}
	for i, c := range codes {
		if c != want[i] {
			t.Errorf("request %d: code %d, want %d (got %v)", i, c, want[i], codes)
			break
		}
	}
	if hits != 2 {
		t.Errorf("cache hits = %d, want 2", hits)
	}
}
