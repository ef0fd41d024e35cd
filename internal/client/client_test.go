package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/resilience"
)

// fakeGateway is a minimal OpenAI-compatible handler for SDK tests.
type fakeGateway struct {
	lastAuth string
	lastBody []byte
}

func (f *fakeGateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.lastAuth = r.Header.Get("Authorization")
	if r.Body != nil {
		buf := make([]byte, 1<<16)
		n, _ := r.Body.Read(buf)
		f.lastBody = buf[:n]
	}
	switch r.URL.Path {
	case "/v1/chat/completions":
		var req openaiapi.ChatCompletionRequest
		json.Unmarshal(f.lastBody, &req)
		if req.Model == "missing/model" {
			w.WriteHeader(404)
			json.NewEncoder(w).Encode(openaiapi.NewError("invalid_request_error", "no such model"))
			return
		}
		if req.Stream {
			w.Header().Set("Content-Type", "text/event-stream")
			openaiapi.WriteSSE(w, openaiapi.StreamChunk{
				Choices: []openaiapi.Choice{{Delta: &openaiapi.Message{Content: "streamed "}}},
			})
			openaiapi.WriteSSE(w, openaiapi.StreamChunk{
				Choices: []openaiapi.Choice{{Delta: &openaiapi.Message{Content: "reply"}}},
			})
			openaiapi.WriteSSEDone(w)
			return
		}
		json.NewEncoder(w).Encode(openaiapi.ChatCompletionResponse{
			ID: "c1", Model: req.Model,
			Choices: []openaiapi.Choice{{Message: &openaiapi.Message{Role: "assistant", Content: "pong"}}},
			Usage:   openaiapi.Usage{PromptTokens: 2, CompletionTokens: 1, TotalTokens: 3},
		})
	case "/v1/models":
		json.NewEncoder(w).Encode(openaiapi.ModelList{Object: "list", Data: []openaiapi.Model{{ID: "m1"}}})
	case "/v1/batches/b1/results":
		w.Header().Set("Content-Type", "application/jsonl")
		enc := json.NewEncoder(w)
		enc.Encode(openaiapi.BatchResponseLine{CustomID: "r1", Status: 200})
		enc.Encode(openaiapi.BatchResponseLine{CustomID: "r2", Status: 200})
	default:
		w.WriteHeader(404)
		json.NewEncoder(w).Encode(openaiapi.NewError("invalid_request_error", "nope"))
	}
}

func TestClientSendsBearerToken(t *testing.T) {
	fg := &fakeGateway{}
	c := New("", "tok-123", WithHandler(fg))
	if _, err := c.Models(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fg.lastAuth != "Bearer tok-123" {
		t.Errorf("auth header = %q", fg.lastAuth)
	}
	c.SetToken("tok-456")
	c.Models(context.Background())
	if fg.lastAuth != "Bearer tok-456" {
		t.Errorf("auth after SetToken = %q", fg.lastAuth)
	}
}

func TestClientChatRoundtrip(t *testing.T) {
	c := New("", "t", WithHandler(&fakeGateway{}))
	resp, err := c.ChatCompletion(context.Background(), openaiapi.ChatCompletionRequest{
		Model:    "m1",
		Messages: []openaiapi.Message{{Role: "user", Content: "ping"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Choices[0].Message.Content != "pong" {
		t.Errorf("content = %q", resp.Choices[0].Message.Content)
	}
}

func TestClientAPIError(t *testing.T) {
	c := New("", "t", WithHandler(&fakeGateway{}))
	_, err := c.ChatCompletion(context.Background(), openaiapi.ChatCompletionRequest{
		Model:    "missing/model",
		Messages: []openaiapi.Message{{Role: "user", Content: "x"}},
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v", err)
	}
	if apiErr.StatusCode != 404 || apiErr.Type != "invalid_request_error" {
		t.Errorf("apiErr = %+v", apiErr)
	}
	if !strings.Contains(apiErr.Error(), "404") {
		t.Errorf("Error() = %q", apiErr.Error())
	}
}

func TestClientStreaming(t *testing.T) {
	c := New("", "t", WithHandler(&fakeGateway{}))
	var deltas []string
	full, err := c.ChatCompletionStream(context.Background(), openaiapi.ChatCompletionRequest{
		Model:    "m1",
		Messages: []openaiapi.Message{{Role: "user", Content: "x"}},
	}, func(d string) { deltas = append(deltas, d) })
	if err != nil {
		t.Fatal(err)
	}
	if full != "streamed reply" {
		t.Errorf("full = %q", full)
	}
	if len(deltas) != 2 {
		t.Errorf("deltas = %v", deltas)
	}
}

func TestClientBatchResultsJSONL(t *testing.T) {
	c := New("", "t", WithHandler(&fakeGateway{}))
	lines, err := c.BatchResults(context.Background(), "b1")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0].CustomID != "r1" {
		t.Errorf("lines = %+v", lines)
	}
}

func TestClientContextCancellation(t *testing.T) {
	c := New("", "t", WithHandler(&fakeGateway{}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Models(ctx); err == nil {
		t.Error("cancelled context should fail")
	}
}

// TestClientCancelMidStream is the regression test for the in-process
// transport ignoring context cancellation once ServeHTTP had started: a
// handler stuck mid-SSE must not pin the client past its context. The
// client cancels after the first delta; the call must return promptly with
// a context error even though the handler never finishes on its own.
func TestClientCancelMidStream(t *testing.T) {
	firstDelta := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		openaiapi.WriteSSE(w, openaiapi.StreamChunk{
			Choices: []openaiapi.Choice{{Delta: &openaiapi.Message{Content: "first"}}},
		})
		close(firstDelta)
		select { // a stalled upstream: no more events until released
		case <-release:
		case <-r.Context().Done():
			// The caller hung up: drop the connection without the DONE
			// event. Writing DONE here raced the client's own cancellation
			// path — a fast reader could see a cleanly-terminated stream
			// and return nil error, flaking the assertion below.
			return
		}
		openaiapi.WriteSSEDone(w)
	})
	defer close(release)

	c := New("", "t", WithHandler(h))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-firstDelta
		cancel()
	}()
	done := make(chan struct{})
	var text string
	var err error
	go func() {
		defer close(done)
		text, err = c.ChatCompletionStream(ctx, openaiapi.ChatCompletionRequest{
			Model:    "m1",
			Messages: []openaiapi.Message{{Role: "user", Content: "x"}},
		}, nil)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled stream still blocked after 5s: transport ignores mid-body cancellation")
	}
	if err == nil {
		t.Fatal("cancelled mid-stream call returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if text != "first" {
		t.Errorf("partial text = %q, want deltas delivered before the cut", text)
	}
}

// TestClientCancelAfterEOF: once the in-process transport's body has been
// read to EOF, cancelling the request's context does not poison it — the
// body keeps reporting a clean EOF and closes without error.
func TestClientCancelAfterEOF(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"object":"list","data":[]}`))
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://first.gateway.local/v1/models", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := HandlerRoundTripper(h).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != `{"object":"list","data":[]}` {
		t.Fatalf("body = %q, %v", body, err)
	}
	cancel()
	if n, err := resp.Body.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Errorf("read after cancel = %d, %v; want 0, io.EOF", n, err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Errorf("close after cancel = %v", err)
	}
}

// flakyGateway fails the first n requests with the given status, then
// delegates to fakeGateway.
type flakyGateway struct {
	fakeGateway
	mu         sync.Mutex
	failFirst  int
	status     int
	retryAfter string
	attempts   int
}

func (f *flakyGateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.attempts++
	fail := f.attempts <= f.failFirst
	f.mu.Unlock()
	if fail {
		if f.retryAfter != "" {
			w.Header().Set("Retry-After", f.retryAfter)
		}
		w.WriteHeader(f.status)
		json.NewEncoder(w).Encode(openaiapi.NewError("overloaded_error", "try later"))
		return
	}
	f.fakeGateway.ServeHTTP(w, r)
}

func (f *flakyGateway) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts
}

func TestClientRetriesTransient(t *testing.T) {
	fg := &flakyGateway{failFirst: 2, status: 503, retryAfter: "0"}
	c := New("", "t", WithHandler(fg), WithRetry(resilience.Policy{MaxAttempts: 3}))
	resp, err := c.ChatCompletion(context.Background(), openaiapi.ChatCompletionRequest{
		Model:    "m1",
		Messages: []openaiapi.Message{{Role: "user", Content: "ping"}},
	})
	if err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if resp.Choices[0].Message.Content != "pong" {
		t.Errorf("content = %q", resp.Choices[0].Message.Content)
	}
	if got := fg.count(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
}

// truncGateway serves a 200 whose JSON body is cut mid-object for the first
// failFirst requests, then delegates to the real fake gateway — the shape a
// connection cut mid-response produces.
type truncGateway struct {
	fakeGateway
	mu        sync.Mutex
	failFirst int
	attempts  int
}

func (g *truncGateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	g.attempts++
	cut := g.attempts <= g.failFirst
	g.mu.Unlock()
	if cut {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"chatcmpl-1","choi`))
		return
	}
	g.fakeGateway.ServeHTTP(w, r)
}

func TestClientMalformedBodyIsTypedAndRetried(t *testing.T) {
	tg := &truncGateway{failFirst: 1}
	c := New("", "t", WithHandler(tg), WithRetry(resilience.Policy{MaxAttempts: 2}))
	resp, err := c.ChatCompletion(context.Background(), openaiapi.ChatCompletionRequest{
		Model:    "m1",
		Messages: []openaiapi.Message{{Role: "user", Content: "ping"}},
	})
	if err != nil {
		t.Fatalf("retry after truncated body failed: %v", err)
	}
	if resp.Choices[0].Message.Content != "pong" {
		t.Errorf("content = %q", resp.Choices[0].Message.Content)
	}

	// With no retry budget the caller sees the typed error, not a raw
	// *json.SyntaxError it cannot classify.
	tg2 := &truncGateway{failFirst: 10}
	c2 := New("", "t", WithHandler(tg2))
	_, err = c2.ChatCompletion(context.Background(), openaiapi.ChatCompletionRequest{
		Model:    "m1",
		Messages: []openaiapi.Message{{Role: "user", Content: "ping"}},
	})
	if !errors.Is(err, ErrMalformedResponse) {
		t.Fatalf("err = %v, want ErrMalformedResponse", err)
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	fg := &flakyGateway{failFirst: 10, status: 503, retryAfter: "7"}
	c := New("", "t", WithHandler(fg),
		WithRetry(resilience.Policy{MaxAttempts: 2, MaxDelay: time.Millisecond}))
	_, err := c.ChatCompletion(context.Background(), openaiapi.ChatCompletionRequest{
		Model:    "m1",
		Messages: []openaiapi.Message{{Role: "user", Content: "x"}},
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v", err)
	}
	if apiErr.StatusCode != 503 {
		t.Errorf("status = %d", apiErr.StatusCode)
	}
	if apiErr.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want parsed 7s", apiErr.RetryAfter)
	}
	if got := fg.count(); got != 2 {
		t.Errorf("attempts = %d, want budget of 2", got)
	}
}

func TestClientNoRetryOn4xx(t *testing.T) {
	fg := &flakyGateway{failFirst: 10, status: 404}
	c := New("", "t", WithHandler(fg), WithRetry(resilience.Policy{MaxAttempts: 5}))
	_, err := c.ChatCompletion(context.Background(), openaiapi.ChatCompletionRequest{
		Model:    "m1",
		Messages: []openaiapi.Message{{Role: "user", Content: "x"}},
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := fg.count(); got != 1 {
		t.Errorf("attempts = %d: 4xx must not retry", got)
	}
}

func TestClientStreamRetryBeforeConsumed(t *testing.T) {
	fg := &flakyGateway{failFirst: 1, status: 503, retryAfter: "0"}
	c := New("", "t", WithHandler(fg), WithRetry(resilience.Policy{MaxAttempts: 3}))
	var deltas []string
	full, err := c.ChatCompletionStream(context.Background(), openaiapi.ChatCompletionRequest{
		Model:    "m1",
		Messages: []openaiapi.Message{{Role: "user", Content: "x"}},
	}, func(d string) { deltas = append(deltas, d) })
	if err != nil {
		t.Fatal(err)
	}
	if full != "streamed reply" || len(deltas) != 2 {
		t.Errorf("full = %q deltas = %v: retried stream must deliver exactly once", full, deltas)
	}
}

func TestClientStreamNeverReplaysConsumedBody(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		w.Header().Set("Content-Type", "text/event-stream")
		openaiapi.WriteSSE(w, openaiapi.StreamChunk{
			Choices: []openaiapi.Choice{{Delta: &openaiapi.Message{Content: "half"}}},
		})
		// Cut without [DONE]: endpoint died mid-stream.
	})
	c := New("", "t", WithHandler(h), WithRetry(resilience.Policy{MaxAttempts: 5}))
	var deltas []string
	text, err := c.ChatCompletionStream(context.Background(), openaiapi.ChatCompletionRequest{
		Model:    "m1",
		Messages: []openaiapi.Message{{Role: "user", Content: "x"}},
	}, func(d string) { deltas = append(deltas, d) })
	if !errors.Is(err, openaiapi.ErrStreamTruncated) {
		t.Fatalf("err = %v, want ErrStreamTruncated", err)
	}
	if text != "half" || len(deltas) != 1 {
		t.Errorf("text = %q deltas = %v, want the partial delivered exactly once", text, deltas)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Errorf("attempts = %d: consumed stream must never be replayed", attempts)
	}
}

// TestClientRequestFromParsedBase: every call's request is built on the base
// URL New parsed — its path prefix kept, an empty port dropped from the host
// as http.NewRequest drops it — and a base that does not parse fails every
// call with the parse error, before anything is sent.
func TestClientRequestFromParsedBase(t *testing.T) {
	var paths []string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		paths = append(paths, r.Host+" "+r.URL.Path+" "+r.Header.Get("Content-Type"))
		if r.URL.Path == "/api/v1/batches/b1/results" {
			return // an empty JSONL body
		}
		w.Write([]byte(`{}`))
	})
	c := New("http://gw.example:/api", "t", WithHTTPClient(&http.Client{Transport: HandlerRoundTripper(h)}))
	ctx := context.Background()
	if _, err := c.Models(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ChatCompletion(ctx, openaiapi.ChatCompletionRequest{Model: "m"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BatchResults(ctx, "b1"); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"gw.example /api/v1/models ",
		"gw.example /api/v1/chat/completions application/json",
		"gw.example /api/v1/batches/b1/results ",
	}
	if strings.Join(paths, "|") != strings.Join(want, "|") {
		t.Errorf("requests = %q, want %q", paths, want)
	}

	paths = nil
	bad := New("http://bad host", "t", WithHTTPClient(&http.Client{Transport: HandlerRoundTripper(h)}))
	calls := map[string]func() error{
		"Models":         func() error { _, err := bad.Models(ctx); return err },
		"ChatCompletion": func() error { _, err := bad.ChatCompletion(ctx, openaiapi.ChatCompletionRequest{}); return err },
		"Stream": func() error {
			_, err := bad.ChatCompletionStream(ctx, openaiapi.ChatCompletionRequest{}, nil)
			return err
		},
		"BatchResults": func() error { _, err := bad.BatchResults(ctx, "b1"); return err },
	}
	for name, call := range calls {
		var urlErr *url.Error
		if err := call(); !errors.As(err, &urlErr) || urlErr.Op != "parse" {
			t.Errorf("%s on an unparsable base: err = %v, want the parse error", name, err)
		}
	}
	if len(paths) != 0 {
		t.Errorf("an unparsable base sent %q", paths)
	}
}

// TestClientRequestBodyRewind: a request through an *http.Client carries a
// GetBody, so the client's 307 redirect resends the body; an in-process one
// carries none, since that transport neither redirects nor resends.
func TestClientRequestBodyRewind(t *testing.T) {
	var getBody []bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		getBody = append(getBody, r.GetBody != nil)
		if r.URL.Path == "/v1/chat/completions" && r.URL.RawQuery == "" {
			http.Redirect(w, r, "/v1/chat/completions?moved", http.StatusTemporaryRedirect)
			return
		}
		var req openaiapi.ChatCompletionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Model != "m1" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Write([]byte(`{"model":"m1"}`))
	})
	req := openaiapi.ChatCompletionRequest{Model: "m1"}
	c := New("http://gw.local", "t", WithHTTPClient(&http.Client{Transport: HandlerRoundTripper(h)}))
	if resp, err := c.ChatCompletion(context.Background(), req); err != nil || resp.Model != "m1" {
		t.Fatalf("redirected call: %+v, %v", resp, err)
	}
	if len(getBody) != 2 || !getBody[0] {
		t.Errorf("through an http.Client: GetBody set per hop = %v, want it on the first", getBody)
	}

	getBody = nil
	in := New("", "t", WithHandler(h))
	var apiErr *APIError
	if _, err := in.ChatCompletion(context.Background(), req); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTemporaryRedirect {
		t.Errorf("in-process 307: err = %v, want it returned unfollowed", err)
	}
	if len(getBody) != 1 || getBody[0] {
		t.Errorf("in-process: GetBody set = %v, want [false]", getBody)
	}
}

// TestClientHeaderMapPerRequest: an http.Client with a cookie jar writes the
// jar's cookies into each request's own header map, so concurrent calls do
// not race (run under -race).
func TestClientHeaderMapPerRequest(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.SetCookie(w, &http.Cookie{Name: "session", Value: "s1"})
		w.Write([]byte(`{"object":"list"}`))
	})
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	c := New("http://gw.local", "t", WithHTTPClient(&http.Client{Jar: jar, Transport: HandlerRoundTripper(h)}))
	if _, err := c.Models(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := c.Models(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
