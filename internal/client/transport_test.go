package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/openaiapi"
)

const modelsBody = `{"object":"list","data":[]}`

// idleConns counts the connections on the transport's stack.
func idleConns(tr *handlerTransport) int {
	tr.conns.mu.Lock()
	defer tr.conns.mu.Unlock()
	return len(tr.conns.idle)
}

// settleGoroutines polls runtime.NumGoroutine down to at most want for up to
// 5 s, collecting garbage on each poll so finalizers get their turn, and
// returns the last count.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return n
}

// blockedCalls makes k concurrent Models calls through c whose handlers all
// wait until every one has started, so the transport must serve them on k
// connections at once, and then lets them finish. It fails the test if they
// never all start, or if a call fails.
func blockedCalls(t *testing.T, c *Client, started *sync.WaitGroup, release chan struct{}, k int) {
	t.Helper()
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			_, err := c.Models(context.Background())
			errs <- err
		}()
	}
	all := make(chan struct{})
	go func() {
		started.Wait()
		close(all)
	}()
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d handlers blocked at once did not all start: the transport did not give each its own connection", k)
	}
	close(release)
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

// blockingHandler is a Models handler that waits for release after marking
// itself started.
func blockingHandler(started *sync.WaitGroup, release chan struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started.Done()
		<-release
		io.WriteString(w, modelsBody)
	})
}

// Sequential calls reuse the one kept connection: after the first call, the
// 199 that follow start no goroutine.
func TestTransportSequentialCallsKeepOneConnection(t *testing.T) {
	c := New("", "t", WithHandler(&fakeGateway{}))
	tr := c.inproc
	chat := func() {
		t.Helper()
		resp, err := c.ChatCompletion(context.Background(), openaiapi.ChatCompletionRequest{
			Model:    "m1",
			Messages: []openaiapi.Message{{Role: "user", Content: "ping"}},
		})
		if err != nil || resp.Choices[0].Message.Content != "pong" {
			t.Fatalf("chat = %+v, %v", resp, err)
		}
	}
	chat()
	base := runtime.NumGoroutine()
	for i := 1; i < 200; i++ {
		chat()
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("call %d: %d goroutines, the first call left %d", i, n, base)
		}
		if n := idleConns(tr); n != 1 {
			t.Fatalf("call %d: %d idle connections, want 1", i, n)
		}
	}
}

// k handlers blocked at once get k connections, every call completes, and
// all k connections are kept.
func TestTransportConcurrentCallsGetOwnConnections(t *testing.T) {
	const k = 8
	var started sync.WaitGroup
	started.Add(k)
	release := make(chan struct{})
	c := New("", "t", WithHandler(blockingHandler(&started, release)))
	blockedCalls(t, c, &started, release, k)
	if n := idleConns(c.inproc); n != k {
		t.Errorf("%d idle connections after %d concurrent calls, want %d", n, k, k)
	}
}

// The idle connections' goroutines end on CloseIdleConnections, and, once a
// client is dropped, on its own; a dropped client pins neither its
// transport's goroutines nor the handler.
func TestTransportIdleConnectionsEnd(t *testing.T) {
	const k = 4
	base := runtime.NumGoroutine()
	var started sync.WaitGroup
	started.Add(k)
	release := make(chan struct{})
	c := New("", "t", WithHandler(blockingHandler(&started, release)))
	blockedCalls(t, c, &started, release, k)
	if n := runtime.NumGoroutine(); n < base+k {
		t.Fatalf("%d goroutines with %d idle connections, want at least %d", n, k, base+k)
	}
	tr := c.inproc
	tr.CloseIdleConnections()
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines 5 s after CloseIdleConnections, want %d", n, base)
	}
	// Still usable: a call after it starts a connection of its own.
	if _, err := New("", "t", WithHandler(&fakeGateway{})).Models(context.Background()); err != nil {
		t.Fatal(err)
	}

	base = settleGoroutines(base)
	var collected atomic.Bool
	dropClient(t, k, &collected)
	runtime.GC()
	if n := settleGoroutines(base); n > base {
		t.Errorf("%d goroutines 5 s after the client was dropped, want %d", n, base)
	}
	for deadline := time.Now().Add(5 * time.Second); !collected.Load() && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Error("the handler of a dropped client was never collected")
	}
}

// pinnedHandler reports its collection through a finalizer.
type pinnedHandler struct{ http.Handler }

// dropClient leaves k idle connections behind a client nothing references,
// whose handler sets collected when the garbage collector frees it.
func dropClient(t *testing.T, k int, collected *atomic.Bool) {
	var started sync.WaitGroup
	started.Add(k)
	release := make(chan struct{})
	h := &pinnedHandler{blockingHandler(&started, release)}
	runtime.SetFinalizer(h, func(*pinnedHandler) { collected.Store(true) })
	c := New("", "t", WithHandler(h))
	blockedCalls(t, c, &started, release, k)
	if n := idleConns(c.inproc); n != k {
		t.Fatalf("%d idle connections, want %d", n, k)
	}
}

// Writes never wait for the reader: a handler that writes 1 MiB returns
// before the caller has read a byte, and the caller then reads it all.
func TestTransportWriteDoesNotWaitForReader(t *testing.T) {
	const size = 1 << 20
	returned := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := make([]byte, 64<<10)
		for i := 0; i < size/len(chunk); i++ {
			if _, err := w.Write(chunk); err != nil {
				t.Errorf("write %d: %v", i, err)
				break
			}
		}
		close(returned)
	})
	req, err := http.NewRequest(http.MethodGet, "http://first.gateway.local/big", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := HandlerRoundTripper(h).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler is still writing 5 s in with the body unread: Write waits for the reader")
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || len(body) != size {
		t.Fatalf("read %d bytes, %v; want %d", len(body), err, size)
	}
	if resp.StatusCode != http.StatusOK || resp.Status != "200 OK" {
		t.Errorf("status = %d %q", resp.StatusCode, resp.Status)
	}
}

// chatReply is a fixed chat completion body.
var chatReply = []byte(`{"id":"chatcmpl-00000001","object":"chat.completion","created":1,"model":"m1",` +
	`"choices":[{"index":0,"message":{"role":"assistant","content":"pong"},"finish_reason":"stop"}],` +
	`"usage":{"prompt_tokens":2,"completion_tokens":1,"total_tokens":3}}`)

// An in-process ChatCompletion against a fixed handler costs a pinned
// number of allocations, the handler's connection goroutine included.
func TestChatCompletionInProcessAllocs(t *testing.T) {
	// Measured at 9 on go1.24 linux/amd64 (22 before the call record, 33
	// before the base URL was parsed once and the decoder state pooled):
	// the response's own values 8 — its id, object and model, the choices
	// slice, the message and its role, content and finish reason — and the
	// request's WithContext copy 1. The URL, the header maps, the body
	// reader and buffer, the exchange and its wake channel, the request's
	// copy and encode buffer and the decode target are the call record's,
	// from the transport's free list, and the response decodes from the
	// exchange's buffer in place (openaiapi.Unmarshal: no decoder state).
	budget := 9.0
	if raceEnabled {
		budget = 20 // the pooled decoder and encoder state are dropped now and then
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Type"] = jsonContentType
		w.Write(chatReply)
	})
	c := New("", "t", WithHandler(h))
	req := openaiapi.ChatCompletionRequest{Model: "m1", Messages: []openaiapi.Message{{Role: "user", Content: "ping"}}}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.ChatCompletion(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("in-process ChatCompletion = %.1f allocs, budget %.0f", allocs, budget)
	}
}

// Taking a record and giving it back once its handler has returned
// allocates nothing, and the next call gets the same record.
func TestCallRecordRecycleZeroAlloc(t *testing.T) {
	tr := newHandlerTransport(http.NotFoundHandler())
	first := tr.take()
	first.x.finish()
	tr.release(first)
	if got := tr.take(); got != first {
		t.Fatalf("take after release = %p, want the record given back, %p", got, first)
	}
	tr.release(first)
	if tr.take() == first {
		t.Fatal("a record whose handler has not returned went back on the free list")
	}
	allocs := testing.AllocsPerRun(100, func() {
		rec := tr.take()
		rec.x.finish()
		tr.release(rec)
	})
	if allocs != 0 {
		t.Errorf("take + finish + release = %.1f allocs, want 0", allocs)
	}
}

// A recycled record encodes its chat request into the buffer it kept: the
// bytes are json.Marshal's, and writing them allocates nothing.
func TestCallRecordEncodeZeroAlloc(t *testing.T) {
	tr := newHandlerTransport(http.NotFoundHandler())
	rec := tr.take()
	rec.chat = openaiapi.ChatCompletionRequest{
		Model:     "meta-llama/Meta-Llama-3.1-8B-Instruct",
		Messages:  []openaiapi.Message{{Role: "user", Content: "bench c1 q0000007 the quick brown fox"}},
		MaxTokens: 16,
	}
	want, err := json.Marshal(&rec.chat)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := rec.encode(&rec.chat); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("encode on a recycled record = %.1f allocs, want 0", allocs)
	}
	if !bytes.Equal(rec.enc, want) {
		t.Errorf("encoded %q, want json.Marshal's %q", rec.enc, want)
	}
}

// echoCalls is a chat handler whose every answer carries only what its own
// request sent: the first message's content as the response ID, and that
// tag repeated to a length of its own as the text. A request whose tag is in
// cancels has its context cancelled by the handler mid-body, after which
// the handler writes once more and returns.
func echoCalls(t *testing.T, cancels *sync.Map) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req openaiapi.ChatCompletionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Messages) != 1 {
			t.Errorf("handler: request %+v, %v", req, err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		tag := req.Messages[0].Content
		cancel, cut := cancels.Load(tag)
		if req.Stream {
			w.Header()["Content-Type"] = []string{"text/event-stream"}
			frame := func() error {
				return openaiapi.WriteSSE(w, openaiapi.StreamChunk{ID: tag,
					Choices: []openaiapi.Choice{{Delta: &openaiapi.Message{Content: echoText(tag)}}}})
			}
			frame()
			if cut {
				cancel.(context.CancelFunc)()
				<-r.Context().Done()
				frame()
				return
			}
			frame()
			openaiapi.WriteSSEDone(w)
			return
		}
		body, _ := json.Marshal(openaiapi.ChatCompletionResponse{ID: tag, Model: req.Model,
			Choices: []openaiapi.Choice{{Message: &openaiapi.Message{Role: "assistant", Content: echoText(tag)}}}})
		if cut {
			w.Write(body[:len(body)/2])
			cancel.(context.CancelFunc)()
			<-r.Context().Done()
			w.Write(body[len(body)/2:])
			return
		}
		w.Write(body)
	})
}

// echoText is a tag's answer: the tag repeated 1 to 7 times, so bodies of
// different lengths follow each other through the same records.
func echoText(tag string) string { return strings.Repeat(tag+" ", 1+int(tag[len(tag)-1])%7) }

// Concurrent calls through one in-process client, blocking and streamed,
// each get their own answer, whichever records they are handed, and keep
// it: a later call's decode never lands in an earlier call's Choices. Every
// fifth call's context is cancelled mid-body; it fails with the
// cancellation or, when the handler had returned first, gets its own
// answer, and leaves its record without disturbing the others. Run it as
// go test -race -count=20 -run Recycles.
func TestClientCallRecyclesUnderConcurrency(t *testing.T) {
	var cancels sync.Map
	c := New("", "t", WithHandler(echoCalls(t, &cancels)))
	const workers, calls = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kept := make(map[string]openaiapi.ChatCompletionResponse)
			for i := 0; i < calls; i++ {
				tag := "w" + strconv.Itoa(w) + "-" + strconv.Itoa(i)
				ctx, cancel := context.WithCancel(context.Background())
				cut := i%5 == 3 // the last call of each goroutine gives its record back
				if cut {
					cancels.Store(tag, cancel)
				}
				req := openaiapi.ChatCompletionRequest{Model: "m1", Messages: []openaiapi.Message{{Role: "user", Content: tag}}}
				if i%3 == 1 {
					text, err := c.ChatCompletionStream(ctx, req, nil)
					switch {
					case cut && errors.Is(err, context.Canceled):
						// The write after the cancel may land before the
						// cancellation does.
						if text != "" && text != echoText(tag) && text != echoText(tag)+echoText(tag) {
							t.Errorf("%s: cancelled stream's text %q is not its own", tag, text)
						}
					case err != nil:
						t.Errorf("%s: stream: %v", tag, err)
					case text != echoText(tag)+echoText(tag):
						t.Errorf("%s: stream text %q, want its own", tag, text)
					}
				} else {
					resp, err := c.ChatCompletion(ctx, req)
					switch {
					case cut && errors.Is(err, context.Canceled):
					case err != nil:
						t.Errorf("%s: %v", tag, err)
					case resp.ID != tag || len(resp.Choices) != 1 || resp.Choices[0].Message.Content != echoText(tag):
						t.Errorf("%s: answer %+v is not its own", tag, resp)
					default:
						kept[tag] = resp
					}
				}
				cancel()
			}
			for tag, resp := range kept {
				if resp.ID != tag || resp.Choices[0].Message.Content != echoText(tag) {
					t.Errorf("%s: answer changed after later calls: %+v", tag, resp)
				}
			}
		}(w)
	}
	wg.Wait()
	idle := 0
	for rec := c.inproc.free; rec != nil; rec = rec.next {
		idle++
	}
	if idle == 0 || idle > workers {
		t.Errorf("%d records on the free list after %d calls on %d goroutines, want 1 to %d", idle, workers*calls, workers, workers)
	}
}

// A response RoundTrip gives an outside caller — here an http.Client over
// the transport — is that caller's for good: its status, header and body
// bytes read the same after Close and after 100 more calls, blocking and
// streamed, that recycle records through the same transport.
func TestRoundTripResponseOutlivesClose(t *testing.T) {
	var cancels sync.Map
	echo := echoCalls(t, &cancels)
	var n atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/models" {
			w.Header().Set("X-Call", strconv.FormatInt(n.Add(1), 10))
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, modelsBody)
			return
		}
		echo.ServeHTTP(w, r)
	})
	c := New("", "t", WithHandler(h))
	ctx := context.Background()
	chat := func(i int) {
		req := openaiapi.ChatCompletionRequest{Model: "m1", Messages: []openaiapi.Message{{Role: "user", Content: "c" + strconv.Itoa(i)}}}
		if i%2 == 0 {
			_, err := c.ChatCompletionStream(ctx, req, nil)
			if err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, err := c.ChatCompletion(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	chat(0)
	chat(1) // records on the free list for the outside call to take

	hc := &http.Client{Transport: c.inproc}
	resp, err := hc.Get("http://first.gateway.local/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	check := func(when string) {
		t.Helper()
		if resp.StatusCode != http.StatusAccepted || resp.Status != "202 Accepted" ||
			resp.Header.Get("X-Call") != "1" || len(resp.Header) != 1 || string(body) != modelsBody {
			t.Errorf("%s: status %d %q, header %v, body %q; want 202, X-Call 1 alone, %q",
				when, resp.StatusCode, resp.Status, resp.Header, body, modelsBody)
		}
		if k, err := resp.Body.Read(make([]byte, 8)); k != 0 || !errors.Is(err, errBodyClosed) {
			t.Errorf("%s: read after Close = %d, %v; want 0, errBodyClosed", when, k, err)
		}
	}
	check("after Close")
	for i := 2; i < 102; i++ {
		chat(i)
	}
	check("after 100 more calls")
}

// A request body is json.Marshal's bytes, with no newline after them, on
// the in-process path and through an http.Client alike: HTML characters,
// line separators and invalid UTF-8 are escaped and replaced as Marshal
// does, and a stream's body carries "stream":true.
func TestClientRequestBodyMatchesMarshal(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, b)
		mu.Unlock()
		if r.URL.Path == "/v1/chat/completions" && bytes.Contains(b, []byte(`"stream":true`)) {
			openaiapi.WriteSSE(w, openaiapi.StreamChunk{Choices: []openaiapi.Choice{{Delta: &openaiapi.Message{Content: "x"}}}})
			openaiapi.WriteSSEDone(w)
			return
		}
		io.WriteString(w, `{}`)
	})
	chat := openaiapi.ChatCompletionRequest{
		Model:       "m<1>&",
		Messages:    []openaiapi.Message{{Role: "user", Content: "a\u2028b <script> é \xff\x00 \"q\""}},
		MaxTokens:   7,
		Temperature: 0.25,
		User:        "u",
	}
	stream := chat
	stream.Stream = true
	completion := openaiapi.CompletionRequest{Model: "m", Prompt: "<&>", MaxTokens: 3}
	var want [][]byte
	for _, v := range []any{chat, stream, completion, chat} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	for name, c := range map[string]*Client{
		"in-process":  New("", "t", WithHandler(h)),
		"http.Client": New("http://gw.local", "t", WithHTTPClient(&http.Client{Transport: HandlerRoundTripper(h)})),
	} {
		bodies = nil
		ctx := context.Background()
		if _, err := c.ChatCompletion(ctx, chat); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ChatCompletionStream(ctx, chat, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Completion(ctx, completion); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ChatCompletion(ctx, stream); err != nil { // Stream is forced off
			t.Fatal(err)
		}
		if len(bodies) != len(want) {
			t.Fatalf("%s: %d bodies sent, want %d", name, len(bodies), len(want))
		}
		for i := range want {
			if !bytes.Equal(bodies[i], want[i]) {
				t.Errorf("%s: body %d = %s, want json.Marshal's %s", name, i, bodies[i], want[i])
			}
		}
	}
}

// A recycled record's decode targets and response header start empty on
// every call: a stream frame with no delta adds no text, though the frame
// before it had one, and a response without Retry-After reports none,
// though the last response on the same record carried one.
func TestClientRecordStartsEmpty(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
		}
		if r.URL.Path == "/v1/models" {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "data: {\"choices\":[{\"delta\":{\"content\":\"a\"}}]}\n\n"+
			"data: {\"choices\":[{\"index\":0,\"finish_reason\":\"stop\"}]}\n\n"+
			"data: [DONE]\n\n")
	})
	c := New("", "t", WithHandler(h))
	ctx := context.Background()
	for i, want := range []time.Duration{7 * time.Second, 0} {
		var apiErr *APIError
		if _, err := c.Models(ctx); !errors.As(err, &apiErr) || apiErr.RetryAfter != want {
			t.Errorf("call %d: err = %v, want a 503 with Retry-After %v", i, err, want)
		}
	}
	for i := 0; i < 2; i++ {
		if text, err := c.ChatCompletionStream(ctx, openaiapi.ChatCompletionRequest{Model: "m"}, nil); err != nil || text != "a" {
			t.Errorf("stream %d = %q, %v; want %q", i, text, err, "a")
		}
	}
}
