package gateway_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/core"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/gateway"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/resilience"
)

// twoClusterFixture boots a two-cluster federation (polaris first in
// registry order, then sophia) for failover tests.
func twoClusterFixture(t *testing.T, cfg gateway.Config) (*core.System, string) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{
		Clock: clock.NewScaled(20000),
		Clusters: []core.ClusterSpec{
			{Name: "polaris", Nodes: 2, GPUsPerNode: 8},
			{Name: "sophia", Nodes: 2, GPUsPerNode: 8},
		},
		Deployments: []core.DeploymentSpec{
			{Model: perfmodel.Llama8B, Clusters: []string{"polaris", "sophia"},
				Config: fabric.DeploymentConfig{MinInstances: 1, MaxInstances: 1}},
		},
		Gateway: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if err := sys.RegisterUser("u1", "u1@anl.gov"); err != nil {
		t.Fatal(err)
	}
	grant, err := sys.Login("u1")
	if err != nil {
		t.Fatal(err)
	}
	return sys, grant.AccessToken
}

// fakeInfer fabricates an FnInfer handler returning canned text.
func fakeInfer(text string) fabric.Handler {
	return func(ctx context.Context, payload any) (any, error) {
		req, err := fabric.InferPayload(payload)
		if err != nil {
			return nil, err
		}
		return fabric.InferResult{
			Model: req.Model, Text: text, PromptTok: req.PromptTok, OutputTok: req.OutputTok,
		}, nil
	}
}

const chatBody = `{"model":"meta-llama/Meta-Llama-3.1-8B-Instruct","messages":[{"role":"user","content":"hi"}],"max_tokens":4}`

func counterValue(sys *core.System, name string) int64 {
	return sys.Metrics.Snapshot().Counters[name]
}

// TestGatewayFailoverToNextCluster: the first-priority endpoint fails every
// request; with a retry budget the gateway re-routes the attempt to the
// other cluster and the client sees success.
func TestGatewayFailoverToNextCluster(t *testing.T) {
	sys, token := twoClusterFixture(t, gateway.Config{
		Retry: resilience.Policy{MaxAttempts: 2},
	})
	sys.Endpoints["ep-polaris"].RegisterFunction(fabric.FnInfer, func(ctx context.Context, payload any) (any, error) {
		return nil, fabric.ErrEndpointShutdown
	})
	sys.Endpoints["ep-sophia"].RegisterFunction(fabric.FnInfer, fakeInfer("from sophia"))

	rec := doRaw(t, sys, "POST", "/v1/chat/completions", token, chatBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp openaiapi.ChatCompletionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Choices[0].Message.Content != "from sophia" {
		t.Errorf("content = %q, want the failover cluster's answer", resp.Choices[0].Message.Content)
	}
	if got := counterValue(sys, "failover_success"); got != 1 {
		t.Errorf("failover_success = %d, want 1", got)
	}
}

// TestGatewayAllOpenSheds: with breakers enabled and every endpoint failing,
// sustained failures trip all circuits and the gateway sheds with 503 +
// Retry-After instead of hammering dead endpoints.
func TestGatewayAllOpenSheds(t *testing.T) {
	// Logical breaker clock: each call advances one second, making trip
	// and probe timing deterministic.
	var tick atomic.Int64
	logical := func() time.Time {
		return time.Unix(1000+tick.Load(), 0)
	}
	sys, token := twoClusterFixture(t, gateway.Config{
		Retry: resilience.Policy{MaxAttempts: 2},
		Breaker: resilience.BreakerConfig{
			Window: time.Hour, MinSamples: 2, FailureRate: 0.5, OpenFor: 30 * time.Second,
		},
		BreakerClock: logical,
	})
	fail := func(ctx context.Context, payload any) (any, error) {
		return nil, fabric.ErrEndpointShutdown
	}
	sys.Endpoints["ep-polaris"].RegisterFunction(fabric.FnInfer, fail)
	sys.Endpoints["ep-sophia"].RegisterFunction(fabric.FnInfer, fail)

	// Drive failures until both breakers open (2 samples each suffice; the
	// failover inside one request feeds both endpoints).
	sawShed := false
	var shedRec recorder
	for i := 0; i < 8 && !sawShed; i++ {
		tick.Add(1)
		rec := doRaw(t, sys, "POST", "/v1/chat/completions", token, chatBody)
		switch rec.Code {
		case http.StatusBadGateway:
		case http.StatusServiceUnavailable:
			sawShed = true
			shedRec = recorder{code: rec.Code, retryAfter: rec.Header().Get("Retry-After"), body: rec.Body.String()}
		default:
			t.Fatalf("request %d: unexpected status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if !sawShed {
		t.Fatal("breakers never shed load")
	}
	if shedRec.retryAfter == "" {
		t.Errorf("503 missing Retry-After header: %+v", shedRec)
	}
	var envelope openaiapi.ErrorResponse
	if err := json.Unmarshal([]byte(shedRec.body), &envelope); err != nil || envelope.Error.Type != "overloaded_error" {
		t.Errorf("shed envelope = %s", shedRec.body)
	}
	if got := counterValue(sys, "load_shed"); got < 1 {
		t.Errorf("load_shed = %d, want >= 1", got)
	}
	if sys.Gateway.Breakers() == nil || sys.Gateway.Breakers().Trips() < 2 {
		t.Errorf("trips = %v, want both endpoints tripped", sys.Gateway.Breakers().Trips())
	}

	// /metrics exposes the breaker gauges.
	mrec := doRaw(t, sys, "GET", "/metrics", "", "")
	if body := mrec.Body.String(); !containsAll(body, "breaker_open", "breaker_trips", "auth_cache_invalidations") {
		t.Errorf("metrics missing resilience gauges:\n%s", body)
	}

	// After OpenFor, a probe is admitted again (the endpoint still fails,
	// so the client sees 502 — but no longer a shed).
	tick.Add(40)
	rec := doRaw(t, sys, "POST", "/v1/chat/completions", token, chatBody)
	if rec.Code != http.StatusBadGateway {
		t.Errorf("post-expiry status = %d, want 502 via half-open probe", rec.Code)
	}
}

type recorder struct {
	code       int
	retryAfter string
	body       string
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// TestGatewayEndpointUnauthorizedRecheck: an endpoint-side 401 after a
// gateway cache hit invalidates the cached introspection, rechecks once,
// and — the token still being valid — replays against the same endpoint
// without consuming the failover budget (zero-value Retry here).
func TestGatewayEndpointUnauthorizedRecheck(t *testing.T) {
	sys, token := gatewayFixture(t, gateway.Config{})
	var calls atomic.Int64
	sys.Endpoints["ep-sophia"].RegisterFunction(fabric.FnInfer, func(ctx context.Context, payload any) (any, error) {
		if calls.Add(1) == 1 {
			return nil, fabric.ErrUnauthorized
		}
		return fakeInfer("after recheck")(ctx, payload)
	})

	// Prime the gateway token cache.
	if rec := doRaw(t, sys, "GET", "/v1/models", token, ""); rec.Code != 200 {
		t.Fatalf("prime: %d", rec.Code)
	}
	rec := doRaw(t, sys, "POST", "/v1/chat/completions", token, chatBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp openaiapi.ChatCompletionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Choices[0].Message.Content != "after recheck" {
		t.Errorf("content = %q", resp.Choices[0].Message.Content)
	}
	if got := counterValue(sys, "auth_rechecks"); got != 1 {
		t.Errorf("auth_rechecks = %d, want 1", got)
	}
	if calls.Load() != 2 {
		t.Errorf("endpoint calls = %d, want 2 (reject + replay)", calls.Load())
	}

	// A second endpoint 401 inside the recheck cooldown surfaces as 401 to
	// the client (bounded: no recheck storm).
	sys.Endpoints["ep-sophia"].RegisterFunction(fabric.FnInfer, func(ctx context.Context, payload any) (any, error) {
		return nil, fabric.ErrUnauthorized
	})
	rec = doRaw(t, sys, "POST", "/v1/chat/completions", token, chatBody)
	if rec.Code != http.StatusUnauthorized {
		t.Errorf("persistent endpoint 401: status = %d, want 401", rec.Code)
	}
}

// TestGatewayRecheckReplayIsNotAFailover: after a real failover, an
// endpoint-side 401 whose token still checks out is replayed for free — it
// is neither counted as a second failover nor backed off a second time.
func TestGatewayRecheckReplayIsNotAFailover(t *testing.T) {
	sys, token := twoClusterFixture(t, gateway.Config{
		Retry: resilience.Policy{MaxAttempts: 2},
	})
	sys.Endpoints["ep-polaris"].RegisterFunction(fabric.FnInfer, func(ctx context.Context, payload any) (any, error) {
		return nil, fabric.ErrEndpointShutdown
	})
	var calls atomic.Int64
	sys.Endpoints["ep-sophia"].RegisterFunction(fabric.FnInfer, func(ctx context.Context, payload any) (any, error) {
		if calls.Add(1) == 1 {
			return nil, fabric.ErrUnauthorized
		}
		return fakeInfer("from sophia")(ctx, payload)
	})
	if rec := doRaw(t, sys, "GET", "/v1/models", token, ""); rec.Code != 200 {
		t.Fatalf("prime: %d", rec.Code)
	}

	rec := doRaw(t, sys, "POST", "/v1/chat/completions", token, chatBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	for name, want := range map[string]int64{"failover_attempts": 1, "failover_success": 1, "auth_rechecks": 1} {
		if got := counterValue(sys, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
