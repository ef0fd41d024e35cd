package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/client"
	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/core"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/gateway"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/perfmodel"
)

// gatewayFixture boots a testbed with custom gateway config.
func gatewayFixture(t *testing.T, cfg gateway.Config) (*core.System, string) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{
		Clock: clock.NewScaled(20000),
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
	if err := sys.RegisterUser("u1", "u1@anl.gov"); err != nil {
		t.Fatal(err)
	}
	grant, err := sys.Login("u1")
	if err != nil {
		t.Fatal(err)
	}
	return sys, grant.AccessToken
}

func doRaw(t *testing.T, sys *core.System, method, path, token, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	sys.Gateway.ServeHTTP(rec, req)
	return rec
}

func TestMissingAndMalformedAuth(t *testing.T) {
	sys, _ := gatewayFixture(t, gateway.Config{})
	if rec := doRaw(t, sys, "GET", "/v1/models", "", ""); rec.Code != 401 {
		t.Errorf("no token: %d", rec.Code)
	}
	if rec := doRaw(t, sys, "GET", "/v1/models", "fa_fake.sig", ""); rec.Code != 401 {
		t.Errorf("fake token: %d", rec.Code)
	}
	var envelope openaiapi.ErrorResponse
	rec := doRaw(t, sys, "GET", "/v1/models", "", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Type == "" {
		t.Errorf("error envelope malformed: %s", rec.Body.String())
	}
}

func TestMalformedRequestBodies(t *testing.T) {
	sys, token := gatewayFixture(t, gateway.Config{})
	cases := []struct {
		path, body string
	}{
		{"/v1/chat/completions", `{broken`},
		{"/v1/chat/completions", `{"model":"","messages":[]}`},
		{"/v1/chat/completions", `{"model":"m","messages":[{"role":"alien","content":"x"}]}`},
		{"/v1/completions", `{"model":"m"}`},
		{"/v1/embeddings", `{"model":"m"}`},
	}
	for _, c := range cases {
		rec := doRaw(t, sys, "POST", c.path, token, c.body)
		if rec.Code != 400 {
			t.Errorf("%s %q: code %d, want 400", c.path, c.body, rec.Code)
		}
	}
}

func TestUnroutedModel404(t *testing.T) {
	sys, token := gatewayFixture(t, gateway.Config{})
	body := `{"model":"meta-llama/Llama-3.3-70B-Instruct","messages":[{"role":"user","content":"x"}]}`
	rec := doRaw(t, sys, "POST", "/v1/chat/completions", token, body)
	// 70B is in the catalog but has no route on this one-model fixture.
	if rec.Code != 502 && rec.Code != 404 {
		t.Errorf("unrouted model: code %d", rec.Code)
	}
}

func TestUserRateLimiting(t *testing.T) {
	sys, token := gatewayFixture(t, gateway.Config{UserRatePerSec: 0.001, UserBurst: 2})
	var limited int
	for i := 0; i < 6; i++ {
		rec := doRaw(t, sys, "GET", "/v1/models", token, "")
		if rec.Code == http.StatusTooManyRequests {
			limited++
		}
	}
	if limited < 3 {
		t.Errorf("rate limiter fired %d/6 times, want ≥ 3 (burst 2)", limited)
	}
}

func TestResponseCache(t *testing.T) {
	sys, token := gatewayFixture(t, gateway.Config{CacheTTL: time.Hour})
	c := client.New("", token, client.WithHandler(sys.Gateway))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	req := openaiapi.ChatCompletionRequest{
		Model:     perfmodel.Llama8B,
		Messages:  []openaiapi.Message{{Role: "user", Content: "cached question"}},
		MaxTokens: 8,
	}
	if _, err := c.ChatCompletion(ctx, req); err != nil {
		t.Fatal(err)
	}
	// Identical raw request → cache hit header.
	raw, _ := json.Marshal(req)
	rec := doRaw(t, sys, "POST", "/v1/chat/completions", token, string(raw))
	if rec.Code != 200 {
		t.Fatalf("cached request code %d", rec.Code)
	}
	if sys.Gateway.Metrics().Counter("cache_hits").Value() == 0 {
		t.Error("cache hit not recorded")
	}
}

// chatJSON is a valid chat body; extra is spliced in before the closing brace.
func chatJSON(content, extra string) string {
	return `{"model":"` + perfmodel.Llama8B + `","messages":[{"role":"user","content":"` + content + `"}],"max_tokens":4` + extra + `}`
}

// post sends a chat body from any reader: a reader http does not know the
// length of goes out as a chunked request would arrive, ContentLength -1.
func post(sys *core.System, token string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/chat/completions", body)
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	sys.Gateway.ServeHTTP(rec, req)
	return rec
}

func isHit(rec *httptest.ResponseRecorder) bool { return rec.Header().Get("X-First-Cache") == "hit" }

// errorOf decodes an error envelope's type and message.
func errorOf(t *testing.T, rec *httptest.ResponseRecorder) (typ, msg string) {
	t.Helper()
	var envelope openaiapi.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("not an error envelope: %q", rec.Body.String())
	}
	return envelope.Error.Type, envelope.Error.Message
}

// fill is a reader of n bytes of 'a'.
type fill struct{ n int }

var fillBlock = bytes.Repeat([]byte{'a'}, 64<<10)

func (f *fill) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), f.n)], fillBlock)
	f.n -= n
	return n, nil
}

// TestChatCacheHitPath drives the byte-first hit path through ServeHTTP: a
// repeat of a stored body is answered from the cache byte for byte, and
// nothing that the decode, Validate or the streaming arm would have kept out
// of the cache gets in or out of it because the probe now runs first.
func TestChatCacheHitPath(t *testing.T) {
	// 2000×: the 48 h token and the TTL outlive the oversized row under -race.
	sys, tokens := stressFixture(t, gateway.Config{CacheTTL: 40 * time.Hour}, 2000, 1)
	token := tokens[0]
	count := func(name string) int64 { return sys.Gateway.Metrics().Counter(name).Value() }
	valid := chatJSON("cached question", "")

	first := post(sys, token, strings.NewReader(valid))
	if first.Code != 200 || isHit(first) {
		t.Fatalf("first request: code %d, hit %v; want a 200 miss", first.Code, isHit(first))
	}
	second := post(sys, token, strings.NewReader(valid))
	if second.Code != 200 || !isHit(second) {
		t.Fatalf("repeat: code %d, hit %v; want a 200 hit", second.Code, isHit(second))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("hit body differs from the stored reply:\n%s\n%s", first.Body, second.Body)
	}
	if ct := second.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("hit Content-Type = %q", ct)
	}
	if h, a, n := count("cache_hits"), count("infer_attempts"), sys.Gateway.CacheLen(); h != 1 || a != 1 || n != 1 {
		t.Errorf("cache_hits %d, infer_attempts %d, entries %d; want 1, 1, 1", h, a, n)
	}

	// Bodies that must neither hit nor be stored, however often they come.
	str := func(s string) func() io.Reader { return func() io.Reader { return strings.NewReader(s) } }
	for _, row := range []struct {
		name string
		body func() io.Reader
		code int
		msg  string // the parent's error text; "" for a served stream
	}{
		{"stream", str(chatJSON("cached question", `,"stream":true`)), 200, ""},
		{"malformed JSON", str(`{broken`), 400, "malformed JSON: invalid character 'b' looking for beginning of object key string"},
		{"invalid role", str(`{"model":"` + perfmodel.Llama8B + `","messages":[{"role":"alien","content":"x"}]}`), 400, `messages[0]: invalid role "alien"`},
		{"negative max_tokens", str(`{"model":"` + perfmodel.Llama8B + `","messages":[{"role":"user","content":"x"}],"max_tokens":-1}`), 400, "max_tokens must be non-negative"},
		{"empty body", str(""), 400, "malformed JSON: unexpected end of JSON input"},
		// Valid JSON if read whole; cut at the 32 MiB cap, as before, it is not.
		{"oversized body", func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"model":"`+perfmodel.Llama8B+`","messages":[{"role":"user","content":"`),
				&fill{32 << 20}, strings.NewReader(`"}],"max_tokens":4}`))
		}, 400, "malformed JSON: unexpected end of JSON input"},
	} {
		hits, attempts := count("cache_hits"), count("infer_attempts")
		for i := 0; i < 2; i++ {
			rec := post(sys, token, row.body())
			if rec.Code != row.code || isHit(rec) {
				t.Errorf("%s #%d: code %d, hit %v; want %d and no hit", row.name, i, rec.Code, isHit(rec), row.code)
			}
			if row.msg != "" {
				if typ, msg := errorOf(t, rec); typ != "invalid_request_error" || msg != row.msg {
					t.Errorf("%s #%d: %s %q, want invalid_request_error %q", row.name, i, typ, msg, row.msg)
				}
			} else if !strings.HasSuffix(rec.Body.String(), "data: [DONE]\n\n") {
				t.Errorf("%s #%d: stream does not end in [DONE]: %q", row.name, i, rec.Body.String())
			}
		}
		wantAttempts := attempts
		if row.code == 200 {
			wantAttempts += 2
		}
		if h, a, n := count("cache_hits"), count("infer_attempts"), sys.Gateway.CacheLen(); h != hits || a != wantAttempts || n != 1 {
			t.Errorf("%s: cache_hits %d→%d, infer_attempts %d→%d (want %d), entries %d (want 1)", row.name, hits, h, attempts, a, wantAttempts, n)
		}
	}

	// One byte more is another key: a miss, stored beside the first.
	spaced := post(sys, token, strings.NewReader(valid+" "))
	if spaced.Code != 200 || isHit(spaced) || sys.Gateway.CacheLen() != 2 {
		t.Errorf("body + one space: code %d, hit %v, entries %d; want a 200 miss and 2 entries", spaced.Code, isHit(spaced), sys.Gateway.CacheLen())
	}

	// A chunked request (length unknown) and one that declares 30 MiB but
	// sends about a hundred bytes are read to their end and served; the declared
	// length alone makes the gateway allocate next to nothing.
	if rec := post(sys, token, io.MultiReader(strings.NewReader(valid))); rec.Code != 200 || !isHit(rec) {
		t.Errorf("chunked repeat: code %d, hit %v; want a 200 hit", rec.Code, isHit(rec))
	}
	req := httptest.NewRequest("POST", "/v1/chat/completions", strings.NewReader(chatJSON("short", "")))
	req.Header.Set("Authorization", "Bearer "+token)
	req.ContentLength = 30 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.Gateway.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != 200 {
		t.Errorf("declared 30 MiB, sent %d bytes: code %d %s", len(chatJSON("short", "")), rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Errorf("declared 30 MiB, sent %d bytes: request allocated %d bytes, want < 128 KiB", len(chatJSON("short", "")), got)
	}
}

// TestChatCacheExpiry: past CacheTTL the stored reply is gone — the repeat
// is a miss that reaches the fabric and stores its own reply.
func TestChatCacheExpiry(t *testing.T) {
	sys, token := gatewayFixture(t, gateway.Config{CacheTTL: 10 * time.Minute})
	attempts := sys.Gateway.Metrics().Counter("infer_attempts")
	body := chatJSON("expiring question", "")
	if rec := doRaw(t, sys, "POST", "/v1/chat/completions", token, body); rec.Code != 200 {
		t.Fatalf("first request: code %d", rec.Code)
	}
	sys.Clock.Sleep(11 * time.Minute)
	rec := doRaw(t, sys, "POST", "/v1/chat/completions", token, body)
	if rec.Code != 200 || rec.Header().Get("X-First-Cache") != "" {
		t.Errorf("after the TTL: code %d, X-First-Cache %q; want a 200 miss", rec.Code, rec.Header().Get("X-First-Cache"))
	}
	if got := attempts.Value(); got != 2 {
		t.Errorf("infer_attempts = %d, want 2 (the expired entry must not be served)", got)
	}
	if n := sys.Gateway.CacheLen(); n != 1 {
		t.Errorf("entries = %d, want 1 (expired entry replaced by the fresh reply)", n)
	}
}

// TestCacheOffDerivesNoKey pins the default configuration (CacheTTL 0):
// identical requests all reach the fabric, none is marked a hit, nothing is
// stored.
func TestCacheOffDerivesNoKey(t *testing.T) {
	sys, token := gatewayFixture(t, gateway.Config{})
	body := chatJSON("uncached question", "")
	for i := 0; i < 2; i++ {
		rec := doRaw(t, sys, "POST", "/v1/chat/completions", token, body)
		if rec.Code != 200 || rec.Header().Get("X-First-Cache") != "" {
			t.Errorf("request %d: code %d, X-First-Cache %q; want 200 and no header", i, rec.Code, rec.Header().Get("X-First-Cache"))
		}
	}
	if got := sys.Gateway.Metrics().Counter("infer_attempts").Value(); got != 2 {
		t.Errorf("infer_attempts = %d, want 2", got)
	}
	if n := sys.Gateway.CacheLen(); n != 0 {
		t.Errorf("entries = %d with the cache off", n)
	}
}

// TestChatCacheKeepsEveryCheck is the security regression suite for serving
// a hit before the body is decoded: every check that could refuse the request
// on the decode path still refuses it on the hit path.
func TestChatCacheKeepsEveryCheck(t *testing.T) {
	sys, tokens := stressFixture(t, gateway.Config{CacheTTL: 40 * time.Hour}, 20000, 2)
	count := func(name string) int64 { return sys.Gateway.Metrics().Counter(name).Value() }
	body := chatJSON("restricted question", "")
	send := func(token string) *httptest.ResponseRecorder {
		return doRaw(t, sys, "POST", "/v1/chat/completions", token, body)
	}

	stored := send(tokens[0])
	if rec := send(tokens[0]); rec.Code != 200 || !isHit(rec) {
		t.Fatalf("user A repeat: code %d, hit %v; want a 200 hit", rec.Code, isHit(rec))
	}

	// The key covers the user: B sending A's exact bytes misses.
	other := send(tokens[1])
	if other.Code != 200 || isHit(other) || bytes.Equal(other.Body.Bytes(), stored.Body.Bytes()) {
		t.Errorf("user B with user A's bytes: code %d, hit %v, same body %v; want B's own 200 miss",
			other.Code, isHit(other), bytes.Equal(other.Body.Bytes(), stored.Body.Bytes()))
	}
	if got := count("infer_attempts"); got != 2 {
		t.Errorf("infer_attempts = %d, want 2 (one per user)", got)
	}

	// A revoked token is refused in withAuth, before the cache is consulted,
	// although B's reply is stored. (Wait out the introspection cache.)
	if err := sys.Auth.Revoke(tokens[1]); err != nil {
		t.Fatal(err)
	}
	sys.Clock.Sleep(11 * time.Minute)
	hits := count("cache_hits")
	if rec := send(tokens[1]); rec.Code != 401 || isHit(rec) || count("cache_hits") != hits {
		t.Errorf("revoked token on a cached body: code %d, hit %v, cache_hits %d→%d; want 401 and no hit",
			rec.Code, isHit(rec), hits, count("cache_hits"))
	}

	// Policy changes between put and hit: A loses access to the model, and
	// the byte-identical request is refused, not answered from the cache.
	sys.Policy.Restrict(perfmodel.Llama8B, "cleared-project")
	rec := send(tokens[0])
	if typ, _ := errorOf(t, rec); rec.Code != 403 || typ != "permission_error" || isHit(rec) {
		t.Errorf("excluded user on a cached body: code %d, type %q, hit %v; want 403 permission_error", rec.Code, typ, isHit(rec))
	}
	if got := count("cache_hits"); got != hits {
		t.Errorf("cache_hits %d→%d: a refused hit was counted", hits, got)
	}

	// A rate-limited user gets 429 on a cached body.
	limited, ltok := stressFixture(t, gateway.Config{CacheTTL: 40 * time.Hour, UserRatePerSec: 0.0001, UserBurst: 2}, 20000, 1)
	var codes []int
	for i := 0; i < 3; i++ {
		codes = append(codes, doRaw(t, limited, "POST", "/v1/chat/completions", ltok[0], body).Code)
	}
	if codes[0] != 200 || codes[1] != 200 || codes[2] != 429 || limited.Gateway.Metrics().Counter("cache_hits").Value() != 1 {
		t.Errorf("burst 2 on one cached body: codes %v, want [200 200 429] with one hit", codes)
	}
}

// hotWriter is a reusable minimal http.ResponseWriter.
type hotWriter struct {
	hdr    http.Header
	status int
	body   []byte
}

func (w *hotWriter) Header() http.Header { return w.hdr }
func (w *hotWriter) WriteHeader(c int)   { w.status = c }
func (w *hotWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// hotBody is a reusable request body.
type hotBody struct{ bytes.Reader }

func (*hotBody) Close() error { return nil }

// TestChatCacheHitAllocBudget pins the whole hit path — mux, withAuth
// (introspection-cache hit, limiter, admission), read + hash, probe,
// authorize, reply, instruments — at one allocation per request: the buffer
// the body is read into. A second one anywhere on it fails here.
func TestChatCacheHitAllocBudget(t *testing.T) {
	sys, err := core.NewSystem(core.Config{
		// 2000×: the 48 h token and the 40 h TTLs outlive the test by far.
		Clock:    clock.NewScaled(2000),
		Clusters: []core.ClusterSpec{{Name: "sophia", Nodes: 4, GPUsPerNode: 8}},
		Deployments: []core.DeploymentSpec{{Model: perfmodel.Llama8B, Clusters: []string{"sophia"},
			Config: fabric.DeploymentConfig{MinInstances: 1, MaxInstances: 1}}},
		Gateway:       gateway.Config{CacheTTL: 40 * time.Hour, UserRatePerSec: 1e9},
		TokenCacheTTL: 40 * time.Hour,
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
	raw := []byte(chatJSON("budgeted question", ""))
	var body hotBody
	req := &http.Request{
		Method: "POST", URL: &url.URL{Path: "/v1/chat/completions"}, Host: "first.local",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Authorization": {"Bearer " + grant.AccessToken}},
		Body:   &body, ContentLength: int64(len(raw)),
	}
	w := &hotWriter{hdr: http.Header{}}
	serve := func() {
		body.Reset(raw)
		clear(w.hdr)
		w.status, w.body = 0, w.body[:0]
		sys.Gateway.ServeHTTP(w, req)
	}
	serve()
	stored := append([]byte(nil), w.body...)
	if w.status != 200 || len(stored) == 0 {
		t.Fatalf("fill: status %d, %d bytes", w.status, len(stored))
	}
	got := testing.AllocsPerRun(1000, func() {
		serve()
		if w.status != 200 || w.hdr["X-First-Cache"][0] != "hit" || !bytes.Equal(w.body, stored) {
			t.Fatalf("status %d, headers %v: not a hit on the stored reply", w.status, w.hdr)
		}
	})
	if got > 1 {
		t.Errorf("a response-cache hit through ServeHTTP allocates %.0f/op, want ≤ 1 (the body buffer)", got)
	}
}

func TestMetricsAndDashboardEndpoints(t *testing.T) {
	sys, token := gatewayFixture(t, gateway.Config{})
	c := client.New("", token, client.WithHandler(sys.Gateway))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c.ChatCompletion(ctx, openaiapi.ChatCompletionRequest{
		Model:     perfmodel.Llama8B,
		Messages:  []openaiapi.Message{{Role: "user", Content: "metrics"}},
		MaxTokens: 8,
	})
	rec := doRaw(t, sys, "GET", "/metrics", "", "")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "first_http_requests_total") {
		t.Errorf("metrics endpoint: %d %q", rec.Code, rec.Body.String()[:80])
	}
	// The token cache's singleflight stats are exposed as gauges (ROADMAP:
	// herd suppression must be visible on the dashboard). One authenticated
	// request has happened, so the cache holds ≥1 entry and saw ≥1 miss.
	for _, name := range []string{
		"first_auth_cache_entries", "first_auth_cache_coalesced",
		"first_auth_cache_hits", "first_auth_cache_misses",
	} {
		if !strings.Contains(rec.Body.String(), name+" ") {
			t.Errorf("metrics endpoint missing %s", name)
		}
	}
	rec = doRaw(t, sys, "GET", "/dashboard", "", "")
	if rec.Code != 200 {
		t.Fatalf("dashboard code %d", rec.Code)
	}
	var d gateway.Dashboard
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Totals.Requests < 1 || d.Totals.OutputTokens < 8 {
		t.Errorf("dashboard totals = %+v", d.Totals)
	}
	if len(d.Models) == 0 {
		t.Error("dashboard missing model statuses")
	}
	if d.Metrics.Gauges["auth_cache_entries"] < 1 {
		t.Errorf("dashboard auth_cache_entries = %d, want ≥ 1 after an authed request",
			d.Metrics.Gauges["auth_cache_entries"])
	}
	if d.Metrics.Gauges["auth_cache_misses"] < 1 {
		t.Errorf("dashboard auth_cache_misses = %d, want ≥ 1", d.Metrics.Gauges["auth_cache_misses"])
	}
}

func TestHealthz(t *testing.T) {
	sys, _ := gatewayFixture(t, gateway.Config{})
	if rec := doRaw(t, sys, "GET", "/healthz", "", ""); rec.Code != 200 {
		t.Errorf("healthz = %d", rec.Code)
	}
}

func TestRequestLoggingToStore(t *testing.T) {
	sys, token := gatewayFixture(t, gateway.Config{})
	c := client.New("", token, client.WithHandler(sys.Gateway))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c.ChatCompletion(ctx, openaiapi.ChatCompletionRequest{
		Model:     perfmodel.Llama8B,
		Messages:  []openaiapi.Message{{Role: "user", Content: "log me"}},
		MaxTokens: 4,
	})
	recent := sys.Store.RecentRequests(1)
	if len(recent) != 1 {
		t.Fatal("request not logged")
	}
	r := recent[0]
	if r.User != "u1" || r.Model != perfmodel.Llama8B || r.OutputTok != 4 || r.Status != "ok" {
		t.Errorf("logged row = %+v", r)
	}
	if r.Endpoint != "ep-sophia" {
		t.Errorf("endpoint = %s", r.Endpoint)
	}
}
