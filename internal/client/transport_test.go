package client

import (
	"context"
	"io"
	"net/http"
	"runtime"
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
	tr := c.httpc.(*handlerTransport)
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
	if n := idleConns(c.httpc.(*handlerTransport)); n != k {
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
	tr := c.httpc.(*handlerTransport)
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
	if n := idleConns(c.httpc.(*handlerTransport)); n != k {
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
	// Measured at 22 on go1.24 linux/amd64 (33 before the base URL was
	// parsed once and the decoder state pooled): the response's own values
	// 6 (its strings, the choices slice, the message), the http.Request with
	// its URL copy, header map and body 5, the exchange with its header map
	// and wake channel 3, the request's encode, the body buffer and
	// io.ReadAll 1 each, the rest the call's own values. The response
	// decode allocates no state of its own (openaiapi.Unmarshal).
	budget := 22.0
	if raceEnabled {
		budget = 33 // the pooled decoder and scanner are dropped now and then
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
