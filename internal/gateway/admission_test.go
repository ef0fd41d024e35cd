package gateway_test

// Regression tests for the worker-admission window after its move from a
// semaphore channel to a lock-free atomic counter (async) — accept/reject
// semantics must be unchanged, slots must be released on every exit path,
// and the legacy sync model must still queue instead of rejecting.

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/gateway"
	"github.com/argonne-first/first/internal/perfmodel"
)

// TestAdmissionWindowReleasesSlots drives many sequential requests through
// a 1-slot async window: every one must be admitted (slots are recycled),
// never 503 — a leak in the release path would wedge the gateway closed.
func TestAdmissionWindowReleasesSlots(t *testing.T) {
	sys, tokens := stressFixture(t, gateway.Config{InFlightLimit: 1}, 20000, 1)
	for i := 0; i < 25; i++ {
		body := fmt.Sprintf(`{"model":"%s","messages":[{"role":"user","content":"q %d"}],"max_tokens":4}`, perfmodel.Llama8B, i)
		rec := doRaw(t, sys, "POST", "/v1/chat/completions", tokens[0], body)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: code %d, want 200 (slot not released?)", i, rec.Code)
		}
	}
	// Error exit paths release too: an invalid body 4xxs before reaching
	// the fabric, and the next valid request must still be admitted.
	if rec := doRaw(t, sys, "POST", "/v1/chat/completions", tokens[0], `{"broken`); rec.Code == http.StatusServiceUnavailable {
		t.Fatalf("invalid body 503ed: admission should reject it downstream")
	}
	body := fmt.Sprintf(`{"model":"%s","messages":[{"role":"user","content":"after"}],"max_tokens":4}`, perfmodel.Llama8B)
	if rec := doRaw(t, sys, "POST", "/v1/chat/completions", tokens[0], body); rec.Code != http.StatusOK {
		t.Fatalf("post-error request: code %d, want 200", rec.Code)
	}
}

// TestAdmissionSyncLegacyQueues pins the legacy model's semantics: a pool
// smaller than the client count never 503s — excess requests block until a
// worker frees, exactly like the nine-worker WSGI deployment. The endpoint
// holds every request until nine are inside at once, so the clients
// genuinely contend for the pool, and no tenth ever gets in beside them.
func TestAdmissionSyncLegacyQueues(t *testing.T) {
	const workers, clients = 9, 12
	sys, tokens := stressFixture(t, gateway.Config{WorkerModel: gateway.WorkerSyncLegacy}, 20000, clients)
	var mu sync.Mutex
	var inside, peak int
	var fill sync.Once
	full := make(chan struct{})
	holdInfer(sys, func(serve func()) {
		mu.Lock()
		inside++
		peak = max(peak, inside)
		if inside == workers {
			fill.Do(func() { close(full) })
		}
		mu.Unlock()
		select {
		case <-full:
		case <-time.After(10 * time.Second):
		}
		serve()
		mu.Lock()
		inside--
		mu.Unlock()
	})
	var wg sync.WaitGroup
	codes := make([]int, clients)
	wg.Add(clients)
	for u := 0; u < clients; u++ {
		go func(u int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"model":"%s","messages":[{"role":"user","content":"sync %d"}],"max_tokens":4}`, perfmodel.Llama8B, u)
			codes[u] = doRaw(t, sys, "POST", "/v1/chat/completions", tokens[u], body).Code
		}(u)
	}
	wg.Wait()
	for u, code := range codes {
		if code != http.StatusOK {
			t.Errorf("client %d: code %d, want 200 (sync workers queue, never reject)", u, code)
		}
	}
	if peak != workers {
		t.Errorf("%d requests inside the gateway at once, want the pool's %d", peak, workers)
	}
	if got := sys.Gateway.Metrics().Counter("overloaded").Value(); got != 0 {
		t.Errorf("overloaded counter = %d, want 0 under the sync model", got)
	}
}
