package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"

	"github.com/argonne-first/first/internal/openaiapi"
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
//
// A call's scaffolding — the request's URL, header map and body reader, the
// exchange that is its ResponseWriter and its response (header map, body
// buffer and wake channel included), and the SDK's encode buffer, request
// copy and decode targets — is one callRecord, kept on the transport's free
// list while idle. Who owns a record, when:
//   - the free list, under the transport's mu, while it is idle;
//   - the caller that took it, until it hands the request to a connection;
//   - from then on the caller and the connection's handler share the
//     exchange under its mu, and the handler reads the request, until
//     ServeHTTP returns and the connection marks the exchange done; the
//     connection sends its last wake under mu as it does so, so once the
//     caller can see done nothing of the connection's touches the record;
//   - the caller alone, from done on.
//
// Only the SDK's own calls give a record back, and only once the handler
// has returned and the response is decoded, with nothing of it referenced:
// an answer's strings are the decoder's copies, never the buffer's bytes.
// A call whose context ended before the handler returned leaves its record
// to the collector, since a cancellation's AfterFunc may still be running
// on it. RoundTrip called from outside (an http.Client over the transport)
// takes a record that is never given back, so its caller may read the
// response's header and status after Close, however late.
func HandlerRoundTripper(h http.Handler) http.RoundTripper {
	return newHandlerTransport(h)
}

type handlerTransport struct {
	h     http.Handler
	conns *connStack

	mu   sync.Mutex
	free *callRecord // idle records; a record never references the transport
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

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	return t.roundTrip(req, &t.take().x) // never given back
}

// roundTrip serves req on a connection with x as its ResponseWriter and
// returns once the header is written.
func (t *handlerTransport) roundTrip(req *http.Request, x *exchange) (*http.Response, error) {
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
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

// maxKeptBuffer bounds the buffers a record keeps for its next call: one
// huge body would otherwise pin that much memory for the transport's life.
const maxKeptBuffer = 64 << 10

// callRecord is one call's scaffolding, made once and recycled through the
// transport's free list (see HandlerRoundTripper for who owns it when). A
// client over the network makes a fresh one per call and never gives it
// back.
type callRecord struct {
	x    exchange
	u    url.URL
	hdr  http.Header // made at the SDK's first call on the record
	body reqBody

	enc   []byte // the encoded request, json.Marshal's bytes
	chat  openaiapi.ChatCompletionRequest
	reply openaiapi.ChatCompletionResponse // ChatCompletion's decode target
	chunk openaiapi.StreamChunk            // a stream's decode target
	text  []byte                           // a stream's text, as it arrives
	sse   []byte                           // a stream's line buffer, made at the record's first stream

	next *callRecord // the free list
}

func newCallRecord() *callRecord {
	rec := new(callRecord)
	rec.x.wake = make(chan struct{}, 1)
	rec.x.resp.Header = make(http.Header)
	return rec
}

// take hands out an idle record, or a new one.
//
//first:hotpath pinned by TestCallRecordRecycleZeroAlloc (transport_test.go)
func (t *handlerTransport) take() *callRecord {
	t.mu.Lock()
	rec := t.free
	if rec != nil {
		t.free, rec.next = rec.next, nil
	}
	t.mu.Unlock()
	if rec == nil {
		rec = newCallRecord() //firstlint:allow hotpath an empty free list makes a record once
	}
	return rec
}

// release gives rec back once its handler has returned with no
// cancellation in flight; otherwise it ends the body as Close does and
// leaves rec to the collector. The caller holds nothing of rec afterwards.
//
//first:hotpath pinned by TestCallRecordRecycleZeroAlloc (transport_test.go)
func (t *handlerTransport) release(rec *callRecord) {
	if !rec.x.hangUp() {
		return
	}
	rec.reset()
	t.mu.Lock()
	rec.next, t.free = t.free, rec
	t.mu.Unlock()
}

// reset clears a record its caller holds alone for its next call, keeping
// its maps, channel and buffers.
//
//first:hotpath reached through the recycle pin
func (rec *callRecord) reset() {
	rec.x.reset()
	rec.u = url.URL{}
	clear(rec.hdr)
	rec.body.Reset(nil)
	rec.enc = rec.enc[:0]
	if cap(rec.enc) > maxKeptBuffer {
		rec.enc = nil
	}
	rec.chat = openaiapi.ChatCompletionRequest{}
	rec.reply = openaiapi.ChatCompletionResponse{}
	rec.chunk = openaiapi.StreamChunk{}
	rec.text = rec.text[:0]
	if cap(rec.text) > maxKeptBuffer {
		rec.text = nil
	}
}

// encode marshals v into the record's buffer: json.Marshal's bytes,
// written by openaiapi.AppendJSON.
//
//first:hotpath for a chat request: pinned by TestCallRecordEncodeZeroAlloc (transport_test.go)
func (rec *callRecord) encode(v any) error {
	b, err := openaiapi.AppendJSON(rec.enc[:0], v)
	rec.enc = b
	return err
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
// one-slot wake channel, always under mu.
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
	fired  bool  // the cancellation had started when ServeHTTP returned
}

// signal wakes the reader; x.mu is held.
//
//first:hotpath reached through the recycle pin
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
	x.signal()
	x.mu.Unlock()
}

func (x *exchange) Write(p []byte) (int, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.status == 0 {
		x.status = http.StatusOK
	}
	if x.err != nil {
		return 0, x.err
	}
	x.buf = append(x.buf, p...)
	x.signal()
	return len(p), nil
}

// Flush is a no-op: a write is readable as soon as it lands.
func (x *exchange) Flush() {}

// finish marks the body complete once ServeHTTP has returned, with a 200
// status if the handler wrote nothing. Its wake goes out under mu, so none
// is left to land once the reader can see done.
//
//first:hotpath pinned by TestCallRecordRecycleZeroAlloc (transport_test.go)
func (x *exchange) finish() {
	fired := x.stop != nil && !x.stop()
	x.mu.Lock()
	if x.status == 0 {
		x.status = http.StatusOK
	}
	x.done, x.fired = true, fired
	x.signal()
	x.mu.Unlock()
}

// cancel ends an unfinished body with the context's error.
func (x *exchange) cancel(err error) {
	x.mu.Lock()
	if !x.done && x.err == nil {
		x.err = err
		x.signal()
	}
	x.mu.Unlock()
}

// wait blocks until the handler has returned or the body has ended early,
// and reports the early end's error.
func (x *exchange) wait() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	for !x.done && x.err == nil {
		x.mu.Unlock()
		<-x.wake
		x.mu.Lock()
	}
	return x.err
}

// whole waits for the handler to return and gives the unread body in place:
// the buffer itself, which no write changes any more. A body that ended
// early gives its error instead.
func (x *exchange) whole() ([]byte, error) {
	if err := x.wait(); err != nil {
		return nil, err
	}
	return x.buf[x.off:], nil
}

// hangUp reports whether the handler has returned with no cancellation in
// flight, so that nothing but the caller touches x any more; otherwise it
// ends the body as Close does, failing the handler's later writes.
//
//first:hotpath reached through the recycle pin
func (x *exchange) hangUp() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done && !x.fired {
		return true
	}
	if x.err == nil {
		x.err = errBodyClosed
	}
	x.buf, x.off = nil, 0
	return false
}

// reset readies an exchange its caller holds alone (hangUp said so) for the
// next call: the header map is cleared, not remade, and the body buffer and
// wake channel are kept, emptied.
//
//first:hotpath reached through the recycle pin
func (x *exchange) reset() {
	clear(x.resp.Header)
	x.resp = http.Response{Header: x.resp.Header}
	x.stop = nil
	select {
	case <-x.wake: // the last call's final wake
	default:
	}
	x.status, x.off, x.err, x.done, x.fired = 0, 0, nil, false, false
	x.buf = x.buf[:0]
	if cap(x.buf) > maxKeptBuffer {
		x.buf = nil
	}
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
