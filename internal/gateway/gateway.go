// Package gateway implements the FIRST Inference Gateway API (§3.1): an
// OpenAI-compatible HTTP service that validates identities through the auth
// layer (with introspection caching — Optimization 2), validates request
// bodies, rate-limits users, optionally caches idempotent responses,
// converts requests into fabric tasks routed by the federation layer,
// logs all activity to the store, and exposes metrics, a dashboard, the
// /jobs scheduler view, and the /v1/batches batch mode.
//
// The front-end's mutable state (response cache, per-user rate limiters,
// response ID counter) is sharded — see frontend.go — so parallel handlers
// never serialize on one lock; Config.Shards tunes the split (1 = the
// historical single-mutex behaviour).
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/argonne-first/first/internal/auth"
	"github.com/argonne-first/first/internal/batch"
	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/metrics"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/resilience"
	"github.com/argonne-first/first/internal/store"
)

// WorkerModel selects the gateway's concurrency architecture — the subject
// of Optimization 3 (§5.3.1).
type WorkerModel int

const (
	// WorkerAsync is the Django-Ninja-style asynchronous gateway: requests
	// are offloaded to the fabric immediately and the in-flight window is
	// wide (Gunicorn workers × threads).
	WorkerAsync WorkerModel = iota
	// WorkerSyncLegacy reproduces the original synchronous Django REST
	// deployment: a small fixed worker pool is held for the full duration
	// of every request ("only nine requests could be processed at a
	// time").
	WorkerSyncLegacy
)

// Config tunes the gateway.
type Config struct {
	WorkerModel WorkerModel
	// InFlightLimit is the async in-flight window; the deployment default
	// models Gunicorn's cpu_count×2+1 workers × 4 threads ≈ 428 (§5.2.2).
	InFlightLimit int
	// SyncWorkers is the legacy pool size (default 9).
	SyncWorkers int
	// ProcessingOverhead is the gateway's per-request CPU cost.
	ProcessingOverhead time.Duration
	// UserRatePerSec rate-limits each user (0 = disabled).
	UserRatePerSec float64
	// UserBurst is the rate limiter burst (default 2× rate).
	UserBurst float64
	// CacheTTL enables response caching for identical non-streaming
	// requests when > 0.
	CacheTTL time.Duration
	// DefaultMaxTokens applies when requests omit max_tokens.
	DefaultMaxTokens int
	// Shards is the front-end shard count: response cache, limiter table,
	// and their locks split N ways (N rounded up to a power of two).
	// 0 derives from GOMAXPROCS; 1 reproduces the single-lock front-end.
	Shards int
	// CacheEntries bounds the response cache across all shards
	// (default 4096, the historical bound — but per-shard LRU instead of
	// wipe-on-overflow). Each shard holds at least one entry, so the
	// effective bound is max(CacheEntries, Shards).
	CacheEntries int
	// LimiterIdleTTL evicts per-user rate-limiter buckets idle longer than
	// this (default 15 min), so one-shot users don't grow the table forever.
	LimiterIdleTTL time.Duration
	// Retry is the inference failover policy: on attempt failure the
	// gateway re-routes to the next-best endpoint (the failed ones
	// excluded) up to Retry.Attempts() total tries. The zero value keeps
	// the historical single-attempt behavior.
	Retry resilience.Policy
	// Breaker enables per-endpoint circuit breaking when
	// Breaker.Enabled() (FailureRate > 0): tripped endpoints drop out of
	// routing, and when every endpoint for a model is open the gateway
	// sheds load with 503 + Retry-After. The zero value disables breaking.
	Breaker resilience.BreakerConfig
	// BreakerClock overrides the time base for breaker decisions (nil =
	// the gateway clock). Deterministic harnesses inject a logical clock
	// so breaker state replays identically across runs.
	BreakerClock func() time.Time
}

func (c *Config) applyDefaults() {
	if c.InFlightLimit <= 0 {
		c.InFlightLimit = 428
	}
	if c.SyncWorkers <= 0 {
		c.SyncWorkers = 9
	}
	if c.UserBurst <= 0 {
		c.UserBurst = c.UserRatePerSec * 2
	}
	if c.DefaultMaxTokens <= 0 {
		c.DefaultMaxTokens = 128
	}
	if c.Shards <= 0 {
		c.Shards = defaultShards()
	}
	c.Shards = ceilPow2(c.Shards)
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.LimiterIdleTTL <= 0 {
		c.LimiterIdleTTL = 15 * time.Minute
	}
}

// defaultShards sizes the front-end to the machine: the next power of two
// at or above GOMAXPROCS, capped at 64 (beyond that the shard working set
// costs more in cache misses than it saves in lock contention).
func defaultShards() int {
	n := ceilPow2(runtime.GOMAXPROCS(0))
	if n > 64 {
		n = 64
	}
	return n
}

// ceilPow2 rounds n up to the nearest power of two (minimum 1).
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Server is the gateway.
type Server struct {
	cfg     Config
	clk     clock.Clock
	tokens  *auth.TokenCache
	policy  *auth.Policy
	router  *federation.Router
	client  *fabric.Client
	batches *batch.Runner
	st      *store.Store
	catalog *perfmodel.Catalog
	met     *metrics.Registry
	ins     instruments

	mux *http.ServeMux
	// Async admission window: a lock-free in-flight counter. The previous
	// `sem` channel serialized every admission (and every release) on the
	// channel's internal lock — one more single point the storm workload
	// funnels through after the front-end itself was sharded. An atomic
	// add/compare keeps identical accept/reject semantics without it.
	inFlight      atomic.Int64
	inFlightLimit int64
	// syncSem remains a channel for the legacy synchronous model only:
	// those workers *queue* (block) when the pool is full, which is exactly
	// channel-send semantics.
	syncSem chan struct{}
	fe      *frontend // sharded mutable front-end state

	toolsMu sync.Mutex // tools registration is control-plane, not sharded
	tools   map[string][]ToolRoute

	// breakers is non-nil only when cfg.Breaker.Enabled(); breakerNow is
	// always callable (cfg.BreakerClock or the gateway clock).
	breakers   *resilience.Set
	breakerNow func() time.Time
}

// instruments are the request path's constant-name metrics, resolved once in
// New: Registry.Counter(name) takes the registry's one mutex and a map
// look-up per call, which every request would otherwise pay three times. The
// two computed names ("route_"+reason, "requests_"+kind) stay look-ups on
// the miss path, and the pull-on-read gauges stay with their refresh
// functions.
type instruments struct {
	httpRequests, authRejected, rateLimited, overloaded *metrics.Counter
	cacheHits, inferAttempts, outputTokens              *metrics.Counter
	failoverAttempts, failoverSuccess, authRechecks     *metrics.Counter
	loadShed, streamAborts, toolCalls                   *metrics.Counter
	requestSeconds                                      *metrics.Histogram
}

func newInstruments(reg *metrics.Registry) instruments {
	return instruments{
		httpRequests:     reg.Counter("http_requests"),
		authRejected:     reg.Counter("auth_rejected"),
		rateLimited:      reg.Counter("rate_limited"),
		overloaded:       reg.Counter("overloaded"),
		cacheHits:        reg.Counter("cache_hits"),
		inferAttempts:    reg.Counter("infer_attempts"),
		outputTokens:     reg.Counter("output_tokens"),
		failoverAttempts: reg.Counter("failover_attempts"),
		failoverSuccess:  reg.Counter("failover_success"),
		authRechecks:     reg.Counter("auth_rechecks"),
		loadShed:         reg.Counter("load_shed"),
		streamAborts:     reg.Counter("stream_aborts"),
		toolCalls:        reg.Counter("tool_calls"),
		requestSeconds:   reg.Histogram("http_request_seconds"),
	}
}

// Deps bundles the gateway's collaborators.
type Deps struct {
	Clock   clock.Clock
	Tokens  *auth.TokenCache
	Policy  *auth.Policy
	Router  *federation.Router
	Client  *fabric.Client
	Batches *batch.Runner
	Store   *store.Store
	Catalog *perfmodel.Catalog
	Metrics *metrics.Registry
}

// New assembles a gateway server.
func New(cfg Config, deps Deps) (*Server, error) {
	cfg.applyDefaults()
	if deps.Clock == nil || deps.Tokens == nil || deps.Router == nil || deps.Client == nil || deps.Store == nil {
		return nil, errors.New("gateway: missing dependencies")
	}
	if deps.Catalog == nil {
		deps.Catalog = perfmodel.Default
	}
	if deps.Metrics == nil {
		deps.Metrics = metrics.NewRegistry()
	}
	if deps.Policy == nil {
		deps.Policy = auth.NewPolicy("")
	}
	s := &Server{
		cfg:     cfg,
		clk:     deps.Clock,
		tokens:  deps.Tokens,
		policy:  deps.Policy,
		router:  deps.Router,
		client:  deps.Client,
		batches: deps.Batches,
		st:      deps.Store,
		catalog: deps.Catalog,
		met:     deps.Metrics,
		ins:     newInstruments(deps.Metrics),
		mux:     http.NewServeMux(),
		fe:      newFrontend(cfg, deps.Clock),
	}
	if cfg.WorkerModel == WorkerSyncLegacy {
		s.syncSem = make(chan struct{}, cfg.SyncWorkers)
	} else {
		s.inFlightLimit = int64(cfg.InFlightLimit)
	}
	s.breakerNow = cfg.BreakerClock
	if s.breakerNow == nil {
		s.breakerNow = deps.Clock.Now
	}
	if cfg.Breaker.Enabled() {
		s.breakers = resilience.NewSet(cfg.Breaker)
		deps.Router.UseBreakers(s.breakers, s.breakerNow)
	}
	s.routes()
	return s, nil
}

// Breakers exposes the breaker set (nil when breaking is disabled) for
// tests and harnesses that assert on trip counts and endpoint health.
func (s *Server) Breakers() *resilience.Set { return s.breakers }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/chat/completions", s.withAuth(s.handleChat))
	s.mux.HandleFunc("POST /v1/completions", s.withAuth(s.handleCompletion))
	s.mux.HandleFunc("POST /v1/embeddings", s.withAuth(s.handleEmbeddings))
	s.mux.HandleFunc("GET /v1/models", s.withAuth(s.handleModels))
	s.mux.HandleFunc("GET /jobs", s.withAuth(s.handleJobs))
	s.mux.HandleFunc("POST /v1/batches", s.withAuth(s.handleCreateBatch))
	s.mux.HandleFunc("GET /v1/batches", s.withAuth(s.handleListBatches))
	s.mux.HandleFunc("GET /v1/batches/{id}", s.withAuth(s.handleGetBatch))
	s.mux.HandleFunc("GET /v1/batches/{id}/results", s.withAuth(s.handleBatchResults))
	s.mux.HandleFunc("POST /v1/batches/{id}/cancel", s.withAuth(s.handleCancelBatch))
	s.mux.HandleFunc("POST /v1/tools/{name}", s.withAuth(s.handleTool))
	s.mux.HandleFunc("GET /v1/tools", s.withAuth(s.handleListTools))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /dashboard", s.handleDashboard)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics exposes the registry (tests, dashboard embedding).
func (s *Server) Metrics() *metrics.Registry { return s.met }

type authedHandler func(w http.ResponseWriter, r *http.Request, who auth.TokenInfo)

// withAuth is the §3.1.2 authorization middleware: Bearer token →
// introspection (cached) → per-user rate limit → worker-model admission.
func (s *Server) withAuth(h authedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.clk.Now()
		authz := r.Header.Get("Authorization")
		if !strings.HasPrefix(authz, "Bearer ") {
			s.writeError(w, http.StatusUnauthorized, "invalid_request_error", "missing bearer token")
			return
		}
		token := strings.TrimPrefix(authz, "Bearer ")
		info, err := s.tokens.Introspect(token)
		if err != nil || !info.Active {
			s.ins.authRejected.Inc()
			status := http.StatusUnauthorized
			if errors.Is(err, auth.ErrRateLimited) {
				status = http.StatusTooManyRequests
			}
			s.writeError(w, status, "invalid_request_error", "token rejected: "+errString(err))
			return
		}
		if s.cfg.UserRatePerSec > 0 && !s.fe.allowUser(info.Sub) {
			s.ins.rateLimited.Inc()
			s.writeError(w, http.StatusTooManyRequests, "rate_limit_error", "user rate limit exceeded")
			return
		}
		// Worker admission: the legacy sync model holds one of few worker
		// slots for the whole request (queueing like WSGI workers would);
		// async admits a wide window on a lock-free in-flight counter.
		if s.cfg.WorkerModel == WorkerSyncLegacy {
			s.syncSem <- struct{}{}
			defer func() { <-s.syncSem }()
		} else {
			if s.inFlight.Add(1) > s.inFlightLimit {
				s.inFlight.Add(-1)
				s.ins.overloaded.Inc()
				s.writeError(w, http.StatusServiceUnavailable, "overloaded_error", "gateway at capacity")
				return
			}
			defer s.inFlight.Add(-1)
		}
		if s.cfg.ProcessingOverhead > 0 {
			s.clk.Sleep(s.cfg.ProcessingOverhead)
		}
		s.ins.httpRequests.Inc()
		h(w, r, info)
		s.ins.requestSeconds.Observe(s.clk.Since(start))
	}
}

func errString(err error) string {
	if err == nil {
		return "inactive token"
	}
	return err.Error()
}

func (s *Server) writeError(w http.ResponseWriter, status int, typ, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(openaiapi.NewError(typ, msg))
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
