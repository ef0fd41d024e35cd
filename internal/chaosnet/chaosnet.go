// Package chaosnet injects deterministic network faults into an HTTP
// round-trip chain. It is the live-stack analogue of the DES failure
// schedule: the same seeded draws that perturb the simulated federation
// perturb the real gateway, so the livefed experiment can compare how the
// two react to an identical storm.
//
// Faults are drawn from a splitmix-style hash of (seed, request key,
// attempt) rather than from a shared PRNG stream, so the schedule is a
// pure function of the request — independent of goroutine interleaving,
// retry timing, and worker count. Retrying the same request re-draws with
// a bumped attempt counter, which is what lets a retry escape a fault
// window the way a real transient fault clears.
package chaosnet

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config sets the per-request fault probabilities. Probabilities are in
// [0,1] and evaluated independently, in the order: refuse, 5xx, stream cut.
// The zero value injects nothing (pass-through transport).
type Config struct {
	// Seed keys every draw; two transports with the same seed and the
	// same requests produce the same fault schedule.
	Seed uint64
	// PRefuse is the probability a request fails at "dial" with a
	// connection-refused style transport error (no response at all).
	PRefuse float64
	// P5xx is the probability the transport synthesizes a 503 without
	// consulting the underlying handler.
	P5xx float64
	// RetryAfter, when positive, is advertised on synthesized 503s.
	RetryAfter time.Duration
	// PCutStream is the probability a successful response body is
	// truncated after CutAfterBytes bytes — the reader sees a clean EOF
	// mid-stream, as when a peer dies between SSE events.
	PCutStream float64
	// CutAfterBytes bounds how much of a cut body is delivered.
	CutAfterBytes int
}

// Stats counts injected faults, by kind.
type Stats struct {
	Refused   atomic.Int64
	Synth5xx  atomic.Int64
	CutStream atomic.Int64
	Passed    atomic.Int64
}

// Snapshot returns the current counts as plain integers.
func (s *Stats) Snapshot() map[string]int64 {
	return map[string]int64{
		"refused":    s.Refused.Load(),
		"synth_5xx":  s.Synth5xx.Load(),
		"cut_stream": s.CutStream.Load(),
		"passed":     s.Passed.Load(),
	}
}

// RefusedError is the synthetic dial failure. It unwraps to nothing and
// carries the request key so tests can assert schedule determinism.
type RefusedError struct {
	Key uint64
}

func (e *RefusedError) Error() string {
	return fmt.Sprintf("chaosnet: connection refused (key %#x)", e.Key)
}

// Transport is a fault-injecting http.RoundTripper wrapping another one.
type Transport struct {
	cfg   Config
	next  http.RoundTripper
	stats Stats

	mu   sync.Mutex
	seen map[uint64]uint32
}

// New wraps next with fault injection.
func New(cfg Config, next http.RoundTripper) *Transport {
	return &Transport{cfg: cfg, next: next, seen: make(map[uint64]uint32)}
}

// CloseIdleConnections closes the inner transport's idle connections when
// it keeps any (it has a CloseIdleConnections method), so an http.Client
// around the chaos transport can end them.
func (t *Transport) CloseIdleConnections() {
	if c, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// Stats exposes the fault counters.
func (t *Transport) Stats() *Stats { return &t.stats }

// RequestKey hashes the parts of a request that identify it across
// retries: method, URL path, and body. Attempt is hashed separately so a
// retry of the same request draws fresh faults.
func RequestKey(method, path string, body []byte) uint64 {
	//firstlint:allow seedflow the key is request identity, never a raw stream seed: every fault draw folds it through Mix inside draw()
	h := fnv.New64a()
	io.WriteString(h, method)
	h.Write([]byte{0})
	io.WriteString(h, path)
	h.Write([]byte{0})
	h.Write(body)
	return h.Sum64()
}

// Draw maps (seed, key, attempt, lane) to a uniform float in [0,1).
// Each fault kind uses its own lane so probabilities stay independent:
// refuse 1, 5xx 2, stream cut 4 (lane 3 is retired, so no lane moved).
// Exported so scenario drivers can key extra fault lanes (e.g. credential
// rejections) off the same deterministic schedule.
func Draw(seed, key uint64, attempt, lane uint32) float64 {
	return draw(seed, key, attempt, lane)
}

func draw(seed, key uint64, attempt, lane uint32) float64 {
	x := Mix(seed ^ key ^ (uint64(attempt) << 32) ^ uint64(lane))
	return float64(x>>11) / float64(1<<53)
}

const attemptHeader = "X-Chaosnet-Attempt"

// RoundTrip draws faults for the request and either refuses, synthesizes a
// 5xx, forwards, or forwards-then-truncates. The attempt number is read from
// the X-Chaosnet-Attempt header when the caller sets one (retry loops bump
// it); absent, every trip is attempt 0.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		body = b
		req.Body = io.NopCloser(bytes.NewReader(b))
	}
	key := RequestKey(req.Method, req.URL.Path, body)
	var attempt uint32
	if v := req.Header.Get(attemptHeader); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			attempt = uint32(n)
		}
	} else {
		// No explicit attempt: count repeats of the same request key, so a
		// retry loop above the transport re-draws faults the way a real
		// transient clears, without knowing chaosnet exists.
		t.mu.Lock()
		attempt = t.seen[key]
		t.seen[key] = attempt + 1
		t.mu.Unlock()
	}

	if t.cfg.PRefuse > 0 && draw(t.cfg.Seed, key, attempt, 1) < t.cfg.PRefuse {
		t.stats.Refused.Add(1)
		return nil, &RefusedError{Key: key}
	}
	if t.cfg.P5xx > 0 && draw(t.cfg.Seed, key, attempt, 2) < t.cfg.P5xx {
		t.stats.Synth5xx.Add(1)
		return t.synth503(req), nil
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}
	if t.cfg.PCutStream > 0 && resp.StatusCode == http.StatusOK &&
		draw(t.cfg.Seed, key, attempt, 4) < t.cfg.PCutStream {
		t.stats.CutStream.Add(1)
		resp.Body = &cutReader{rc: resp.Body, remain: t.cfg.CutAfterBytes}
		return resp, nil
	}
	t.stats.Passed.Add(1)
	return resp, nil
}

func (t *Transport) synth503(req *http.Request) *http.Response {
	h := make(http.Header)
	h.Set("Content-Type", "application/json")
	if t.cfg.RetryAfter > 0 {
		secs := int((t.cfg.RetryAfter + time.Second - 1) / time.Second)
		h.Set("Retry-After", strconv.Itoa(secs))
	}
	body := `{"error":{"message":"chaosnet: injected upstream failure","type":"overloaded_error"}}`
	return &http.Response{
		StatusCode: http.StatusServiceUnavailable,
		Status:     "503 Service Unavailable",
		Header:     h,
		Body:       io.NopCloser(bytes.NewReader([]byte(body))),
		Request:    req,
		ProtoMajor: 1, ProtoMinor: 1,
	}
}

// cutReader delivers at most remain bytes, then reports a clean EOF —
// the same thing a reader observes when the peer closes mid-stream.
type cutReader struct {
	rc     io.ReadCloser
	remain int
}

func (c *cutReader) Read(p []byte) (int, error) {
	if c.remain <= 0 {
		return 0, io.EOF
	}
	if len(p) > c.remain {
		p = p[:c.remain]
	}
	n, err := c.rc.Read(p)
	c.remain -= n
	if c.remain <= 0 && err == nil {
		err = io.EOF
	}
	return n, err
}

func (c *cutReader) Close() error { return c.rc.Close() }

// SetAttempt marks a request with its retry attempt number so the
// transport can re-draw faults per attempt.
func SetAttempt(req *http.Request, attempt int) {
	req.Header.Set(attemptHeader, strconv.Itoa(attempt))
}
