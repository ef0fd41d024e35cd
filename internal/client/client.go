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
	httpc   *http.Client
	// inproc, when set by WithHandler, takes every call in place of httpc,
	// straight through the in-process transport on recycled call records.
	// Requests sent through httpc carry a GetBody: an *http.Client reads it
	// to resend a body on a 307/308 redirect or on a kept-alive connection
	// that died before anything was written. The in-process transport does
	// neither.
	inproc *handlerTransport
	retry  resilience.Policy
	sleep  func(ctx context.Context, d time.Duration) error
}

// jsonContentType is the Content-Type of every request body, shared by all
// requests: read-only.
var jsonContentType = []string{"application/json"}

// Option configures a client.
type Option func(*Client)

// WithHTTPClient overrides the HTTP client.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.httpc, c.inproc = h, nil }
}

// WithHandler wires the client directly to an http.Handler in-process —
// requests never touch the network. Ideal for tests and examples. Calls go
// straight through HandlerRoundTripper, with no http.Client around it: each
// is served on a kept connection goroutine and its response body is a
// buffer the handler appends to, so the buffered memory is the response's
// size (there is no backpressure in-process).
func WithHandler(h http.Handler) Option {
	return func(c *Client) {
		c.inproc = newHandlerTransport(h)
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
	return c
}

// newRequest builds one attempt's request on a copy of the parsed base URL,
// carrying rec's encoded request when body is set. The header map is the
// request's own, over the client's prebuilt value slices: http.Client.send
// writes a cookie jar's cookies straight into req.Header, so a map shared by
// concurrent calls would race. In-process, the URL, header map and body
// reader are rec's; over the network each attempt gets its own, since an
// http.Client may still hold an earlier attempt's request.
func (c *Client) newRequest(ctx context.Context, rec *callRecord, method, path string, body bool) (*http.Request, error) {
	if c.baseErr != nil {
		return nil, c.baseErr
	}
	u, h, rb := &rec.u, rec.hdr, &rec.body
	if c.inproc == nil {
		u, h, rb = new(url.URL), make(http.Header, 2), new(reqBody)
	} else if h == nil {
		h = make(http.Header, 2)
		rec.hdr = h
	}
	*u = *c.base
	u.Path += path
	if u.RawPath != "" {
		u.RawPath += path
	}
	clear(h)
	h["Authorization"] = c.auth
	req := http.Request{
		Method: method, URL: u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h,
	}
	if body {
		b := rec.enc
		h["Content-Type"] = jsonContentType
		rb.Reset(b)
		req.Body = rb
		req.ContentLength = int64(len(b))
		if c.inproc == nil {
			req.GetBody = func() (io.ReadCloser, error) { return newBody(b), nil }
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

// take hands out the record for one call: from the in-process transport's
// free list, or a fresh one over the network.
func (c *Client) take() *callRecord {
	if c.inproc != nil {
		return c.inproc.take()
	}
	return new(callRecord)
}

// release gives rec back to the in-process transport once the call is done
// with it (see HandlerRoundTripper); over the network it is left as is.
func (c *Client) release(rec *callRecord) {
	if c.inproc != nil {
		c.inproc.release(rec)
	}
}

// rearm readies rec for another attempt, and reports false when the last
// attempt's handler is still running in-process and holds it.
func (c *Client) rearm(rec *callRecord) bool {
	if c.inproc != nil {
		if !rec.x.hangUp() {
			return false
		}
		rec.x.reset()
	}
	rec.reply = openaiapi.ChatCompletionResponse{}
	return true
}

// send sends one attempt and returns once the response's header is in.
func (c *Client) send(ctx context.Context, rec *callRecord, method, path string, body bool) (*http.Response, error) {
	req, err := c.newRequest(ctx, rec, method, path, body)
	if err != nil {
		return nil, err
	}
	if c.inproc != nil {
		return c.inproc.roundTrip(req, &rec.x)
	}
	return c.httpc.Do(req)
}

// readAll reads a response's whole body. In-process it is the handler's
// buffer itself, once the handler has returned, valid until rec is given
// back; over the network it is a copy, and the body is closed.
func (c *Client) readAll(rec *callRecord, resp *http.Response) ([]byte, error) {
	if c.inproc != nil {
		return rec.x.whole()
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

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
	rec := c.take()
	err := c.call(ctx, rec, method, path, in, out)
	c.release(rec)
	return err
}

// call runs a JSON call's attempts on rec: in, when not nil, is encoded
// once into rec, and out decoded from a 2xx body.
func (c *Client) call(ctx context.Context, rec *callRecord, method, path string, in, out interface{}) error {
	if in != nil {
		if err := rec.encode(in); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.retry.Attempts(); attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, c.retry.Delay(attempt-1, retryAfterOf(lastErr))); err != nil {
				return lastErr // context ended during backoff: report the real failure
			}
			if !c.rearm(rec) {
				return lastErr
			}
		}
		err := c.doOnce(ctx, rec, method, path, in != nil, out)
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

func (c *Client) doOnce(ctx context.Context, rec *callRecord, method, path string, body bool, out interface{}) error {
	resp, err := c.send(ctx, rec, method, path, body)
	if err != nil {
		return err
	}
	raw, err := c.readAll(rec, resp)
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

// ChatCompletion performs a blocking chat request. The request is encoded
// from the call record's copy of req and the response decoded into the
// record's target, zeroed first, then copied out, so neither is boxed.
func (c *Client) ChatCompletion(ctx context.Context, req openaiapi.ChatCompletionRequest) (openaiapi.ChatCompletionResponse, error) {
	rec := c.take()
	rec.chat = req
	rec.chat.Stream = false
	err := c.call(ctx, rec, http.MethodPost, "/v1/chat/completions", &rec.chat, &rec.reply)
	resp := rec.reply
	c.release(rec)
	return resp, err
}

// ChatCompletionStream performs a streaming chat request, invoking onDelta
// per content delta, and returns the assembled text. A truncated stream
// (cut before [DONE]) surfaces as openaiapi.ErrStreamTruncated alongside the
// partial text. Attempts retry under the client's policy only until the
// first delta has been delivered — a consumed stream is never replayed, so
// the caller never sees duplicated output.
func (c *Client) ChatCompletionStream(ctx context.Context, req openaiapi.ChatCompletionRequest, onDelta func(string)) (string, error) {
	rec := c.take()
	defer func() { c.release(rec) }() // the record the last attempt ran on
	rec.chat = req
	rec.chat.Stream = true
	if err := rec.encode(&rec.chat); err != nil {
		return "", err
	}
	var lastErr error
	for attempt := 0; attempt < c.retry.Attempts(); attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, c.retry.Delay(attempt-1, retryAfterOf(lastErr))); err != nil {
				return "", lastErr
			}
			if !c.rearm(rec) {
				// The last attempt's handler still holds rec: it keeps it,
				// and a fresh record carries the encoded request on.
				next := c.take()
				next.enc = append(next.enc[:0], rec.enc...)
				rec = next
			}
		}
		text, consumed, err := c.streamOnce(ctx, rec, onDelta)
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

// sseLine is the size of a record's stream line buffer, bufio's default: a
// gateway frame (16 words of text and the chunk around them) fits, and a
// longer line is read into a larger buffer for that stream alone.
const sseLine = 4096

// streamOnce runs one streaming attempt. consumed reports whether any delta
// reached the caller, which makes the attempt non-replayable.
func (c *Client) streamOnce(ctx context.Context, rec *callRecord, onDelta func(string)) (string, bool, error) {
	resp, err := c.send(ctx, rec, http.MethodPost, "/v1/chat/completions", true)
	if err != nil {
		return "", false, err
	}
	if c.inproc == nil {
		defer resp.Body.Close()
	}
	if resp.StatusCode/100 != 2 {
		raw, _ := c.readAll(rec, resp)
		return "", false, apiError(resp, raw)
	}
	full := rec.text[:0]
	consumed := false
	if rec.sse == nil {
		rec.sse = make([]byte, sseLine)
	}
	err = openaiapi.ReadSSE(resp.Body, rec.sse, func(data []byte) error {
		rec.chunk = openaiapi.StreamChunk{} // a field the frame omits must not carry over
		if err := openaiapi.Unmarshal(data, &rec.chunk); err != nil {
			// A frame cut mid-JSON (chaosnet severs the stream anywhere,
			// not only on frame boundaries) is a malformed body, not an
			// anonymous parse error — callers classify on the sentinel.
			return fmt.Errorf("%w: %v", ErrMalformedResponse, err)
		}
		for _, ch := range rec.chunk.Choices {
			if ch.Delta != nil && ch.Delta.Content != "" {
				consumed = true
				full = append(full, ch.Delta.Content...)
				if onDelta != nil {
					onDelta(ch.Delta.Content)
				}
			}
		}
		return nil
	})
	rec.text = full
	if err == nil && c.inproc != nil {
		// [DONE] is in: read on to the body's end, as a kept-alive
		// connection is read, so that the record can go back. A
		// cancellation from here on ends nothing the caller sees.
		_ = rec.x.wait()
	}
	if err != nil && ctx.Err() != nil {
		// The caller's cancellation races the transport teardown: the body
		// closing under the reader surfaces as a truncated stream (or a
		// read error) first, but the cancellation is the cause. Surface it
		// so callers classify the call as cancelled, not as damaged.
		err = fmt.Errorf("%w: %v", ctx.Err(), err)
	}
	return string(full), consumed, err
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
	rec := c.take()
	defer c.release(rec)
	resp, err := c.send(ctx, rec, http.MethodGet, "/v1/batches/"+id+"/results", false)
	if err != nil {
		return nil, err
	}
	if c.inproc == nil {
		defer resp.Body.Close()
	}
	if resp.StatusCode/100 != 2 {
		raw, _ := c.readAll(rec, resp)
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
