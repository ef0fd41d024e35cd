package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
)

// HandlerRoundTripper adapts an http.Handler into a RoundTripper that serves
// each call the way net/http serves a keep-alive connection: on a kept
// goroutine. A call takes an idle connection from the transport's stack, or
// starts one, and the handler runs there; when ServeHTTP returns the
// connection goes back on the stack, so the stack its goroutine grew serves
// the next call instead of being grown again. Idle connections hold only the
// transport's stack, never the handler: they end on CloseIdleConnections, or
// once the transport is dropped, through a finalizer on it.
//
// The response body is a buffer the handler appends to. Write never waits
// for the reader, and each write is readable as soon as it lands, so SSE
// deltas arrive as they are written; the buffered memory is the response's
// size, since in-process there is no backpressure. A cancelled request
// context ends the body after the bytes already written and fails the
// handler's next Write, instead of blocking until the handler finishes; once
// the handler has returned, a cancellation leaves the body whole.
func HandlerRoundTripper(h http.Handler) http.RoundTripper {
	return newHandlerTransport(h)
}

type handlerTransport struct {
	h     http.Handler
	conns *connStack
}

func newHandlerTransport(h http.Handler) *handlerTransport {
	t := &handlerTransport{h: h, conns: &connStack{}}
	// The connections' goroutines reference the stack, not t, so t becomes
	// unreachable with its last caller and takes the idle goroutines along.
	runtime.SetFinalizer(t, func(t *handlerTransport) { t.conns.close(true) })
	return t
}

// CloseIdleConnections ends every idle connection's goroutine. The
// transport stays usable: a later call starts a new one.
func (t *handlerTransport) CloseIdleConnections() { t.conns.close(false) }

// Do sends req straight through the transport, without http.Client's
// per-call header clone and redirect scaffolding: the in-process gateway
// neither redirects nor sets cookies.
func (t *handlerTransport) Do(req *http.Request) (*http.Response, error) {
	return t.RoundTrip(req)
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	x := &exchange{wake: make(chan struct{}, 1)}
	x.resp.Header = make(http.Header)
	if ctx.Done() != nil {
		// Cancellation mid-body: AfterFunc registers it with the context
		// instead of starting a watcher goroutine; the connection disarms it
		// when the handler returns.
		x.stop = context.AfterFunc(ctx, func() { x.cancel(ctx.Err()) })
	}
	t.conns.serve(call{h: t.h, req: req, x: x})

	x.mu.Lock()
	for x.status == 0 && x.err == nil {
		x.mu.Unlock()
		<-x.wake
		x.mu.Lock()
	}
	status, err := x.status, x.err
	x.mu.Unlock()
	if status == 0 {
		return nil, err
	}
	r := &x.resp
	r.StatusCode = status
	r.Status = statusLine(status)
	r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.1", 1, 1
	r.Body = x
	r.Request = req
	return r, nil
}

func statusLine(code int) string {
	if code == http.StatusOK {
		return "200 OK"
	}
	return strconv.Itoa(code) + " " + http.StatusText(code)
}

// call is one request handed to a connection.
type call struct {
	h   http.Handler
	req *http.Request
	x   *exchange
}

// connStack holds the idle connections of one transport, each as the
// channel its goroutine receives its next call on. The newest is taken
// first: its stack was grown last.
type connStack struct {
	mu     sync.Mutex
	idle   []chan call
	closed bool
}

// serve hands c to an idle connection, or starts a connection for it.
func (s *connStack) serve(c call) {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		ch := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		ch <- c // never blocks: a connection on the stack has nothing queued
		return
	}
	s.mu.Unlock()
	go s.conn(make(chan call, 1), c)
}

// conn is one kept connection's goroutine. It serves c, goes back on the
// stack before the caller learns the body is complete — so a caller's next
// call finds it there — and serves what it is handed next, until the stack
// closes its channel.
func (s *connStack) conn(ch chan call, c call) {
	for ok := true; ok; c, ok = <-ch {
		c.h.ServeHTTP(c.x, c.req)
		x := c.x
		c = call{} // an idle connection references no handler
		kept := s.put(ch)
		x.finish()
		if !kept {
			return
		}
	}
}

func (s *connStack) put(ch chan call) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.idle = append(s.idle, ch)
	return true
}

// close ends the idle connections; final also ends every busy one as its
// handler returns.
func (s *connStack) close(final bool) {
	s.mu.Lock()
	idle := s.idle
	s.idle = nil
	s.closed = s.closed || final
	s.mu.Unlock()
	for _, ch := range idle {
		close(ch)
	}
}

// errBodyClosed fails a handler's Write once the caller has closed the
// response body, and a Read after that Close.
var errBodyClosed = errors.New("client: in-process response body closed")

// exchange is one call's ResponseWriter and its response's Body. The status
// and header become final at the first WriteHeader or Write; body bytes are
// appended to buf under mu, and every change wakes the reader through the
// one-slot wake channel.
type exchange struct {
	resp http.Response
	stop func() bool // the AfterFunc registration, nil for a context that never ends
	wake chan struct{}

	mu     sync.Mutex
	status int // 0 until the header is written
	buf    []byte
	off    int   // read offset into buf
	err    error // ends the body once buf is drained: cancellation or Close
	done   bool  // ServeHTTP has returned
}

func (x *exchange) signal() {
	select {
	case x.wake <- struct{}{}:
	default: // a wake is already pending
	}
}

func (x *exchange) Header() http.Header { return x.resp.Header }

func (x *exchange) WriteHeader(status int) {
	x.mu.Lock()
	if x.status == 0 {
		x.status = status
	}
	x.mu.Unlock()
	x.signal()
}

func (x *exchange) Write(p []byte) (int, error) {
	x.mu.Lock()
	if x.status == 0 {
		x.status = http.StatusOK
	}
	if x.err != nil {
		err := x.err
		x.mu.Unlock()
		return 0, err
	}
	x.buf = append(x.buf, p...)
	x.mu.Unlock()
	x.signal()
	return len(p), nil
}

// Flush is a no-op: a write is readable as soon as it lands.
func (x *exchange) Flush() {}

// finish marks the body complete once ServeHTTP has returned, with a 200
// status if the handler wrote nothing.
func (x *exchange) finish() {
	if x.stop != nil {
		x.stop()
	}
	x.mu.Lock()
	if x.status == 0 {
		x.status = http.StatusOK
	}
	x.done = true
	x.mu.Unlock()
	x.signal()
}

// cancel ends an unfinished body with the context's error.
func (x *exchange) cancel(err error) {
	x.mu.Lock()
	if !x.done && x.err == nil {
		x.err = err
	}
	x.mu.Unlock()
	x.signal()
}

// Read returns the bytes written so far, waiting for the next write when
// there are none; after them, the cancellation's error or io.EOF.
func (x *exchange) Read(p []byte) (int, error) {
	x.mu.Lock()
	for {
		if x.off < len(x.buf) {
			n := copy(p, x.buf[x.off:])
			x.off += n
			if x.off == len(x.buf) {
				x.buf, x.off = x.buf[:0], 0 // drained: the next write reuses the buffer
			}
			x.mu.Unlock()
			return n, nil
		}
		if x.err != nil {
			err := x.err
			x.mu.Unlock()
			return 0, err
		}
		if x.done {
			x.mu.Unlock()
			return 0, io.EOF
		}
		x.mu.Unlock()
		<-x.wake
		x.mu.Lock()
	}
}

// Close drops what is left of the body and fails the handler's later writes.
func (x *exchange) Close() error {
	x.mu.Lock()
	x.buf, x.off = nil, 0
	if x.err == nil {
		x.err = errBodyClosed
	}
	x.mu.Unlock()
	return nil
}
