package chaosnet

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

type okTripper struct {
	body  string
	calls int
}

func (o *okTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	o.calls++
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader(o.body)),
		Header:     make(http.Header),
	}, nil
}

func post(t *testing.T, tr http.RoundTripper, path, body string, attempt int) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest("POST", "http://fed.local"+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if attempt > 0 {
		SetAttempt(req, attempt)
	}
	return tr.RoundTrip(req)
}

// TestDeterministicSchedule: the same seed and request stream produce the
// identical fault sequence on two independent transports.
func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, PRefuse: 0.2, P5xx: 0.2, PCutStream: 0.3, CutAfterBytes: 4}
	run := func() []string {
		tr := New(cfg, &okTripper{body: "0123456789"})
		var out []string
		for i := 0; i < 64; i++ {
			resp, err := post(t, tr, "/v1/chat/completions", "req "+strings.Repeat("x", i), 0)
			switch {
			case err != nil:
				out = append(out, "refused")
			case resp.StatusCode == http.StatusServiceUnavailable:
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				out = append(out, "503")
			default:
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if len(b) < 10 {
					out = append(out, "cut")
				} else {
					out = append(out, "ok")
				}
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
	kinds := map[string]int{}
	for _, k := range a {
		kinds[k]++
	}
	for _, want := range []string{"refused", "503", "cut", "ok"} {
		if kinds[want] == 0 {
			t.Errorf("schedule never produced %q over 64 requests: %v", want, kinds)
		}
	}
}

// TestAttemptRedraw: a request that faults on attempt 0 can clear on a
// retry, because the attempt number feeds the draw.
func TestAttemptRedraw(t *testing.T) {
	cfg := Config{Seed: 7, PRefuse: 0.5}
	tr := New(cfg, &okTripper{body: "ok"})
	cleared := false
	for i := 0; i < 64 && !cleared; i++ {
		body := "probe " + strings.Repeat("y", i)
		if _, err := post(t, tr, "/v1/chat/completions", body, 0); err == nil {
			continue // want a request that refuses on attempt 0
		}
		if resp, err := post(t, tr, "/v1/chat/completions", body, 1); err == nil {
			resp.Body.Close()
			cleared = true
		}
	}
	if !cleared {
		t.Fatal("no refused request cleared on retry across 64 probes")
	}
}

// TestSynth503RetryAfter: synthesized 503s carry the configured
// Retry-After and never reach the underlying transport.
func TestSynth503RetryAfter(t *testing.T) {
	next := &okTripper{body: "ok"}
	tr := New(Config{Seed: 3, P5xx: 1.0, RetryAfter: 2 * time.Second}, next)
	resp, err := post(t, tr, "/v1/chat/completions", "x", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if next.calls != 0 {
		t.Errorf("underlying transport called %d times, want 0", next.calls)
	}
	if tr.Stats().Synth5xx.Load() != 1 {
		t.Errorf("stats: %v", tr.Stats().Snapshot())
	}
}

// TestCutStream: a cut body yields exactly CutAfterBytes bytes then a
// clean EOF, not an error.
func TestCutStream(t *testing.T) {
	tr := New(Config{Seed: 1, PCutStream: 1.0, CutAfterBytes: 4}, &okTripper{body: "0123456789"})
	resp, err := post(t, tr, "/v1/chat/completions", "x", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("cut stream surfaced error %v, want clean EOF", err)
	}
	if string(b) != "0123" {
		t.Errorf("body = %q, want first 4 bytes only", b)
	}
}

// TestRefusedErrorTyped: refusal is a typed transport error.
func TestRefusedErrorTyped(t *testing.T) {
	tr := New(Config{Seed: 9, PRefuse: 1.0}, &okTripper{})
	_, err := post(t, tr, "/v1/chat/completions", "x", 0)
	var re *RefusedError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RefusedError", err)
	}
}

// TestZeroConfigPassThrough: the zero config forwards everything intact.
func TestZeroConfigPassThrough(t *testing.T) {
	next := &okTripper{body: "hello"}
	tr := New(Config{}, next)
	for i := 0; i < 32; i++ {
		resp, err := post(t, tr, "/v1/chat/completions", strings.Repeat("z", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(b) != "hello" {
			t.Fatalf("body = %q", b)
		}
	}
	if next.calls != 32 || tr.Stats().Passed.Load() != 32 {
		t.Errorf("calls = %d passed = %d", next.calls, tr.Stats().Passed.Load())
	}
}

// closeRecorder is an inner transport that keeps connections: it counts
// the CloseIdleConnections calls it gets.
type closeRecorder struct {
	okTripper
	closed int
}

func (c *closeRecorder) CloseIdleConnections() { c.closed++ }

// TestCloseIdleConnectionsForwarded: the chaos transport hands
// CloseIdleConnections to an inner transport that keeps connections, so an
// http.Client around it can end them, and is a no-op over one that keeps
// none.
func TestCloseIdleConnectionsForwarded(t *testing.T) {
	next := &closeRecorder{}
	(&http.Client{Transport: New(Config{}, next)}).CloseIdleConnections()
	if next.closed != 1 {
		t.Errorf("inner transport closed its idle connections %d times, want 1", next.closed)
	}
	New(Config{}, &okTripper{}).CloseIdleConnections()
}

// TestWindowsSchedule: bursts land on rotating endpoints, deterministic
// per (seed, index, endpoint, attempt), and the background rate stays low.
func TestWindowsSchedule(t *testing.T) {
	w := Windows{BurstEvery: 100, BurstLen: 20, PFault: 0.9, PBackground: 0.01}
	const nEps = 3

	if in, target := w.InBurst(5, nEps); !in || target != 0 {
		t.Errorf("InBurst(5) = %v,%d want burst on ep 0", in, target)
	}
	if in, _ := w.InBurst(50, nEps); in {
		t.Error("InBurst(50) = true, want gap")
	}
	if in, target := w.InBurst(105, nEps); !in || target != 1 {
		t.Errorf("InBurst(105) = %v,%d want burst on ep 1", in, target)
	}

	// Determinism.
	for i := 0; i < 300; i++ {
		for ep := 0; ep < nEps; ep++ {
			if w.Faulty(11, i, ep, nEps, 0) != w.Faulty(11, i, ep, nEps, 0) {
				t.Fatal("Faulty not deterministic")
			}
		}
	}
	// Inside a burst the targeted endpoint faults often; outside, rarely.
	burstFaults, gapFaults := 0, 0
	for i := 0; i < 20; i++ {
		if w.Faulty(11, i, 0, nEps, 0) {
			burstFaults++
		}
	}
	for i := 20; i < 100; i++ {
		if w.Faulty(11, i, 0, nEps, 0) {
			gapFaults++
		}
	}
	if burstFaults < 10 {
		t.Errorf("burst faults = %d/20, want most", burstFaults)
	}
	if gapFaults > 10 {
		t.Errorf("gap faults = %d/80, want few", gapFaults)
	}
	// Zero schedule never faults.
	var zero Windows
	for i := 0; i < 100; i++ {
		if zero.Faulty(1, i, 0, nEps, 0) {
			t.Fatal("zero Windows produced a fault")
		}
	}
}
