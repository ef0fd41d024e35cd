// Package client is the user-side SDK (§4.6): researchers interact with the
// gateway through standard HTTP clients or the OpenAI package; this is the
// equivalent Go client, with helpers for the Globus-style login flow and an
// in-memory transport so examples and tests can talk to a gateway without
// opening sockets.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/resilience"
)

// Client talks to a FIRST gateway.
type Client struct {
	baseURL string
	base    *url.URL // baseURL parsed once, at New; nil when baseErr is set
	baseErr error    // returned by every call
	auth    []string // the Authorization header's value, built once per token
	httpc   doer
	// rewind gives request bodies a GetBody: an *http.Client reads it to
	// resend a body on a 307/308 redirect or on a kept-alive connection
	// that died before anything was written. The in-process transport
	// does neither.
	rewind bool
	retry  resilience.Policy
	sleep  func(ctx context.Context, d time.Duration) error
}

// doer sends one request: an *http.Client, or the in-process transport
// WithHandler installs.
type doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// jsonContentType is the Content-Type of every request body, shared by all
// requests: read-only.
var jsonContentType = []string{"application/json"}

// Option configures a client.
type Option func(*Client)

// WithHTTPClient overrides the HTTP client.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.httpc = h }
}

// WithHandler wires the client directly to an http.Handler in-process —
// requests never touch the network. Ideal for tests and examples. Calls go
// straight through HandlerRoundTripper, with no http.Client around it: each
// is served on a kept connection goroutine and its response body is a
// buffer the handler appends to, so the buffered memory is the response's
// size (there is no backpressure in-process).
func WithHandler(h http.Handler) Option {
	return func(c *Client) {
		c.httpc = newHandlerTransport(h)
		if c.baseURL == "" {
			c.baseURL = "http://first.gateway.local"
		}
	}
}

// WithRetry sets the client's retry policy. The zero Policy (the default)
// performs exactly one attempt, preserving historical behavior. Request
// bodies are re-marshaled byte buffers, so every JSON API call is safe to
// replay; streaming responses retry only until the first delta has been
// delivered (a consumed stream is never replayed).
func WithRetry(p resilience.Policy) Option {
	return func(c *Client) { c.retry = p }
}

// WithSleep overrides how retry backoff waits pass (default: wall-clock
// sleep, interruptible by the request context). Harnesses on a scaled or
// logical clock inject their own sleeper so a server's Retry-After hint —
// expressed in *modeled* seconds — does not stall the driver for real
// wall seconds.
func WithSleep(fn func(ctx context.Context, d time.Duration) error) Option {
	return func(c *Client) { c.sleep = fn }
}

// New returns a client for the gateway at baseURL using the access token.
func New(baseURL, token string, opts ...Option) *Client {
	c := &Client{baseURL: baseURL, httpc: http.DefaultClient}
	c.SetToken(token)
	for _, o := range opts {
		o(c)
	}
	// After the options: WithHandler fills in a default base URL.
	c.base, c.baseErr = url.Parse(c.baseURL)
	if c.baseErr == nil {
		c.base.Host = strings.TrimSuffix(c.base.Host, ":") // as http.NewRequest does
	}
	_, inProcess := c.httpc.(*handlerTransport)
	c.rewind = !inProcess
	return c
}

// newRequest builds one call's request on a copy of the parsed base URL,
// carrying body (nil for none). The header map is the request's own, over
// the client's prebuilt value slices: http.Client.send writes a cookie
// jar's cookies straight into req.Header, so a map shared by concurrent
// calls would race.
func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	if c.baseErr != nil {
		return nil, c.baseErr
	}
	u := *c.base
	u.Path += path
	if u.RawPath != "" {
		u.RawPath += path
	}
	req := http.Request{
		Method: method, URL: &u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Authorization": c.auth},
	}
	if body != nil {
		req.Header["Content-Type"] = jsonContentType
		req.Body = newBody(body)
		req.ContentLength = int64(len(body))
		if c.rewind {
			req.GetBody = func() (io.ReadCloser, error) { return newBody(body), nil }
		}
	}
	return req.WithContext(ctx), nil
}

// reqBody is a request body over a marshaled buffer; closing it is a no-op.
type reqBody struct{ bytes.Reader }

func newBody(b []byte) *reqBody {
	r := new(reqBody)
	r.Reset(b)
	return r
}

func (*reqBody) Close() error { return nil }

// apiError reads a non-2xx response body into an *APIError, from the
// gateway's error envelope when the body is one.
func apiError(resp *http.Response, raw []byte) *APIError {
	e := &APIError{StatusCode: resp.StatusCode, RetryAfter: retryAfterHeader(resp.Header)}
	var envelope openaiapi.ErrorResponse
	if openaiapi.Unmarshal(raw, &envelope) == nil && envelope.Error.Message != "" {
		e.Type, e.Message = envelope.Error.Type, envelope.Error.Message
	} else {
		e.Type, e.Message = "http_error", string(raw)
	}
	return e
}

// SetToken replaces the bearer token (after a refresh).
func (c *Client) SetToken(token string) { c.auth = []string{"Bearer " + token} }

// APIError is a non-2xx gateway response.
type APIError struct {
	StatusCode int
	Type       string
	Message    string
	// RetryAfter is the server's Retry-After hint, when present (0 = none).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gateway: HTTP %d (%s): %s", e.StatusCode, e.Type, e.Message)
}

// retryAfterHeader parses a seconds-form Retry-After header (the only form
// the gateway emits); absent or unparseable values report 0.
func retryAfterHeader(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// retryAfterOf extracts the server hint from a previous attempt's error.
func retryAfterOf(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// shouldRetry decides whether another attempt may follow err. Transport
// errors retry unless the caller's context is done; HTTP responses retry on
// 429 and the transient 5xx family. 4xx (other than 429) are the caller's
// fault and never retried.
func (c *Client) shouldRetry(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.StatusCode {
		case http.StatusTooManyRequests,
			http.StatusInternalServerError,
			http.StatusBadGateway,
			http.StatusServiceUnavailable,
			http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true
}

// backoff waits out a retry delay via the configured sleeper.
func (c *Client) backoff(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	return sleepCtx(ctx, d)
}

// sleepCtx sleeps for d or until ctx is done, whichever is first. The wall
// wait itself lives in internal/clock so every raw sleep in the module
// shares one audited implementation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	return clock.SleepCtx(ctx, d)
}

func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	var buf []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		buf = b
	}
	var lastErr error
	for attempt := 0; attempt < c.retry.Attempts(); attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, c.retry.Delay(attempt-1, retryAfterOf(lastErr))); err != nil {
				return lastErr // context ended during backoff: report the real failure
			}
		}
		err := c.doOnce(ctx, method, path, buf, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !c.shouldRetry(ctx, err) {
			return err
		}
	}
	return lastErr
}

func (c *Client) doOnce(ctx context.Context, method, path string, buf []byte, out interface{}) error {
	req, err := c.newRequest(ctx, method, path, buf)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp, raw)
	}
	if out == nil {
		return nil
	}
	if err := openaiapi.Unmarshal(raw, out); err != nil {
		// A 2xx with an undecodable body means the connection was cut (or
		// the payload corrupted) mid-response. Surface it as a typed,
		// retryable error — the JSON call is replayable — rather than a
		// raw decoder error the caller cannot classify.
		return fmt.Errorf("%w: %v", ErrMalformedResponse, err)
	}
	return nil
}

// ErrMalformedResponse reports a 2xx response whose body failed to decode —
// a connection cut mid-body or a corrupted payload. It is retryable: the
// request buffer is replayed on the next attempt.
var ErrMalformedResponse = errors.New("client: malformed response body")

// ChatCompletion performs a blocking chat request.
func (c *Client) ChatCompletion(ctx context.Context, req openaiapi.ChatCompletionRequest) (openaiapi.ChatCompletionResponse, error) {
	var resp openaiapi.ChatCompletionResponse
	req.Stream = false
	err := c.do(ctx, http.MethodPost, "/v1/chat/completions", req, &resp)
	return resp, err
}

// ChatCompletionStream performs a streaming chat request, invoking onDelta
// per content delta, and returns the assembled text. A truncated stream
// (cut before [DONE]) surfaces as openaiapi.ErrStreamTruncated alongside the
// partial text. Attempts retry under the client's policy only until the
// first delta has been delivered — a consumed stream is never replayed, so
// the caller never sees duplicated output.
func (c *Client) ChatCompletionStream(ctx context.Context, req openaiapi.ChatCompletionRequest, onDelta func(string)) (string, error) {
	req.Stream = true
	buf, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	var lastErr error
	for attempt := 0; attempt < c.retry.Attempts(); attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, c.retry.Delay(attempt-1, retryAfterOf(lastErr))); err != nil {
				return "", lastErr
			}
		}
		text, consumed, err := c.streamOnce(ctx, buf, onDelta)
		if err == nil {
			return text, nil
		}
		lastErr = err
		if consumed || !c.shouldRetry(ctx, err) {
			return text, err
		}
	}
	return "", lastErr
}

// streamOnce runs one streaming attempt. consumed reports whether any delta
// reached the caller, which makes the attempt non-replayable.
func (c *Client) streamOnce(ctx context.Context, body []byte, onDelta func(string)) (string, bool, error) {
	httpReq, err := c.newRequest(ctx, http.MethodPost, "/v1/chat/completions", body)
	if err != nil {
		return "", false, err
	}
	resp, err := c.httpc.Do(httpReq)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(resp.Body)
		return "", false, apiError(resp, raw)
	}
	var full bytes.Buffer
	consumed := false
	err = openaiapi.ReadSSE(resp.Body, func(data []byte) error {
		var chunk openaiapi.StreamChunk
		if err := openaiapi.Unmarshal(data, &chunk); err != nil {
			// A frame cut mid-JSON (chaosnet severs the stream anywhere,
			// not only on frame boundaries) is a malformed body, not an
			// anonymous parse error — callers classify on the sentinel.
			return fmt.Errorf("%w: %v", ErrMalformedResponse, err)
		}
		for _, ch := range chunk.Choices {
			if ch.Delta != nil && ch.Delta.Content != "" {
				consumed = true
				full.WriteString(ch.Delta.Content)
				if onDelta != nil {
					onDelta(ch.Delta.Content)
				}
			}
		}
		return nil
	})
	if err != nil && ctx.Err() != nil {
		// The caller's cancellation races the transport teardown: the body
		// closing under the reader surfaces as a truncated stream (or a
		// read error) first, but the cancellation is the cause. Surface it
		// so callers classify the call as cancelled, not as damaged.
		err = fmt.Errorf("%w: %v", ctx.Err(), err)
	}
	return full.String(), consumed, err
}

// Completion performs a text completion.
func (c *Client) Completion(ctx context.Context, req openaiapi.CompletionRequest) (openaiapi.CompletionResponse, error) {
	var resp openaiapi.CompletionResponse
	err := c.do(ctx, http.MethodPost, "/v1/completions", req, &resp)
	return resp, err
}

// Embeddings computes embeddings.
func (c *Client) Embeddings(ctx context.Context, req openaiapi.EmbeddingRequest) (openaiapi.EmbeddingResponse, error) {
	var resp openaiapi.EmbeddingResponse
	err := c.do(ctx, http.MethodPost, "/v1/embeddings", req, &resp)
	return resp, err
}

// Models lists hosted models.
func (c *Client) Models(ctx context.Context) (openaiapi.ModelList, error) {
	var resp openaiapi.ModelList
	err := c.do(ctx, http.MethodGet, "/v1/models", nil, &resp)
	return resp, err
}

// Jobs reports model availability (§4.3).
func (c *Client) Jobs(ctx context.Context) (openaiapi.JobsResponse, error) {
	var resp openaiapi.JobsResponse
	err := c.do(ctx, http.MethodGet, "/jobs", nil, &resp)
	return resp, err
}

// CreateBatch submits a batch job (§4.4).
func (c *Client) CreateBatch(ctx context.Context, req openaiapi.CreateBatchRequest) (openaiapi.BatchObject, error) {
	var resp openaiapi.BatchObject
	err := c.do(ctx, http.MethodPost, "/v1/batches", req, &resp)
	return resp, err
}

// GetBatch fetches batch status.
func (c *Client) GetBatch(ctx context.Context, id string) (openaiapi.BatchObject, error) {
	var resp openaiapi.BatchObject
	err := c.do(ctx, http.MethodGet, "/v1/batches/"+id, nil, &resp)
	return resp, err
}

// BatchResults downloads a completed batch's JSONL output.
func (c *Client) BatchResults(ctx context.Context, id string) ([]openaiapi.BatchResponseLine, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/batches/"+id+"/results", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(resp.Body)
		return nil, &APIError{StatusCode: resp.StatusCode, Type: "http_error", Message: string(raw)}
	}
	var lines []openaiapi.BatchResponseLine
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var line openaiapi.BatchResponseLine
		if err := dec.Decode(&line); err != nil {
			return nil, err
		}
		lines = append(lines, line)
	}
	return lines, nil
}

// CancelBatch cancels a batch.
func (c *Client) CancelBatch(ctx context.Context, id string) (openaiapi.BatchObject, error) {
	var resp openaiapi.BatchObject
	err := c.do(ctx, http.MethodPost, "/v1/batches/"+id+"/cancel", nil, &resp)
	return resp, err
}
