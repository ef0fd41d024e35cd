package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/argonne-first/first/internal/auth"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/metrics"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/store"
	"github.com/argonne-first/first/internal/workload"
)

const (
	maxBodyBytes = 32 << 20
	// bodyPresize caps how much of a declared Content-Length readBody
	// allocates up front; a longer body grows the buffer as its bytes
	// arrive, so a header alone cannot make the gateway reserve memory.
	bodyPresize = 64 << 10
)

// Header values of a response-cache hit, shared by every hit: read-only.
var (
	jsonContentType = []string{"application/json"}
	cacheHit        = []string{"hit"}
)

// readBody reads the request body (its first maxBodyBytes) once into a
// single buffer, behind pre bytes left zeroed for the caller.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, pre int) ([]byte, bool) {
	size := r.ContentLength
	if size < 0 {
		size = bytes.MinRead // unknown (chunked): start where io.ReadAll does
	} else if size > bodyPresize {
		size = bodyPresize
	}
	// One spare byte: the Read that reports io.EOF after an exactly sized
	// body must not find the buffer full and grow it.
	buf := make([]byte, pre, pre+int(size)+1)
	lr := io.LimitedReader{R: r.Body, N: maxBodyBytes}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "invalid_request_error", "cannot read body")
			return nil, false
		}
	}
}

// handleChat serves POST /v1/chat/completions. It decides from bytes first:
// the response-cache key is a hash of sub and the raw body, so a repeat is
// recognised — and answered — before the body is decoded (see doc.go,
// "Sharded gateway front-end", for why that skips no check).
func (s *Server) handleChat(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	pre := 0
	if s.fe.cacheTTL > 0 {
		pre = keyPrefixLen(who.Sub)
	}
	buf, ok := s.readBody(w, r, pre)
	if !ok {
		return
	}
	var key respKey
	if pre > 0 {
		key = keyInPlace(buf, who.Sub)
		if cached, model, ok := s.fe.cacheGet(key); ok {
			if err := s.policy.Authorize(who, model); err != nil {
				s.writeError(w, http.StatusForbidden, "permission_error", err.Error())
				return
			}
			s.ins.cacheHits.Inc()
			h := w.Header()
			h["Content-Type"] = jsonContentType
			h["X-First-Cache"] = cacheHit
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(cached)
			return
		}
	}
	var req openaiapi.ChatCompletionRequest
	if err := json.Unmarshal(buf[pre:], &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_request_error", "malformed JSON: "+err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
		return
	}
	if err := s.policy.Authorize(who, req.Model); err != nil {
		s.writeError(w, http.StatusForbidden, "permission_error", err.Error())
		return
	}

	var promptTok int
	var lastUser string
	for _, m := range req.Messages {
		promptTok += workload.EstimateTokens(m.Content)
		if m.Role == "user" {
			lastUser = m.Content
		}
	}
	maxTok := req.MaxTokens
	if maxTok <= 0 {
		maxTok = s.cfg.DefaultMaxTokens
	}

	res, meta, err := s.infer(r, who, req.Model, fabric.InferRequest{
		Model:     req.Model,
		PromptTok: promptTok,
		OutputTok: maxTok,
		Prompt:    lastUser,
		WantText:  true,
	})
	if err != nil {
		s.logRequest(who, req.Model, meta, store.KindChat, promptTok, 0, "error")
		s.writeInferError(w, err)
		return
	}
	s.logRequest(who, req.Model, meta, store.KindChat, res.PromptTok, res.OutputTok, "ok")

	resp := openaiapi.ChatCompletionResponse{
		ID:      s.fe.nextID("chatcmpl"),
		Object:  "chat.completion",
		Created: s.clk.Now().Unix(),
		Model:   req.Model,
		Choices: []openaiapi.Choice{{
			Index:        0,
			Message:      &openaiapi.Message{Role: "assistant", Content: res.Text},
			FinishReason: "stop",
		}},
		Usage: openaiapi.Usage{
			PromptTokens:     res.PromptTok,
			CompletionTokens: res.OutputTok,
			TotalTokens:      res.PromptTok + res.OutputTok,
		},
	}
	if req.Stream {
		s.streamChat(w, resp)
		return
	}
	out, _ := json.Marshal(resp)
	s.fe.cachePut(key, req.Model, out)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// streamChat replays a finished completion as OpenAI-style SSE deltas.
// (The fabric returns whole results; token-level streaming stops at the
// gateway boundary — see DESIGN.md.)
func (s *Server) streamChat(w http.ResponseWriter, resp openaiapi.ChatCompletionResponse) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	content := ""
	if len(resp.Choices) > 0 && resp.Choices[0].Message != nil {
		content = resp.Choices[0].Message.Content
	}
	words := strings.Fields(content)
	const chunkWords = 16
	for i := 0; i < len(words); i += chunkWords {
		end := i + chunkWords
		if end > len(words) {
			end = len(words)
		}
		piece := strings.Join(words[i:end], " ")
		if i > 0 {
			piece = " " + piece
		}
		chunk := openaiapi.StreamChunk{
			ID:      resp.ID,
			Object:  "chat.completion.chunk",
			Created: resp.Created,
			Model:   resp.Model,
			Choices: []openaiapi.Choice{{Index: 0, Delta: &openaiapi.Message{Role: "assistant", Content: piece}}},
		}
		if err := openaiapi.WriteSSE(w, chunk); err != nil {
			// The client went away mid-stream; the missing [DONE] lets the
			// reader detect the truncation as a typed error.
			s.ins.streamAborts.Inc()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	final := openaiapi.StreamChunk{
		ID: resp.ID, Object: "chat.completion.chunk", Created: resp.Created, Model: resp.Model,
		Choices: []openaiapi.Choice{{Index: 0, Delta: &openaiapi.Message{}, FinishReason: "stop"}},
	}
	_ = openaiapi.WriteSSE(w, final)
	_ = openaiapi.WriteSSEDone(w)
	if flusher != nil {
		flusher.Flush()
	}
}

// handleCompletion serves POST /v1/completions.
func (s *Server) handleCompletion(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	body, ok := s.readBody(w, r, 0)
	if !ok {
		return
	}
	var req openaiapi.CompletionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_request_error", "malformed JSON: "+err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
		return
	}
	if err := s.policy.Authorize(who, req.Model); err != nil {
		s.writeError(w, http.StatusForbidden, "permission_error", err.Error())
		return
	}
	promptTok := workload.EstimateTokens(req.Prompt)
	maxTok := req.MaxTokens
	if maxTok <= 0 {
		maxTok = s.cfg.DefaultMaxTokens
	}
	res, meta, err := s.infer(r, who, req.Model, fabric.InferRequest{
		Model:     req.Model,
		PromptTok: promptTok,
		OutputTok: maxTok,
		Prompt:    req.Prompt,
		WantText:  true,
	})
	if err != nil {
		s.logRequest(who, req.Model, meta, store.KindCompletion, promptTok, 0, "error")
		s.writeInferError(w, err)
		return
	}
	s.logRequest(who, req.Model, meta, store.KindCompletion, res.PromptTok, res.OutputTok, "ok")
	s.writeJSON(w, http.StatusOK, openaiapi.CompletionResponse{
		ID:      s.fe.nextID("cmpl"),
		Object:  "text_completion",
		Created: s.clk.Now().Unix(),
		Model:   req.Model,
		Choices: []openaiapi.Choice{{Index: 0, Text: res.Text, FinishReason: "stop"}},
		Usage: openaiapi.Usage{
			PromptTokens:     res.PromptTok,
			CompletionTokens: res.OutputTok,
			TotalTokens:      res.PromptTok + res.OutputTok,
		},
	})
}

// infer routes through the federation layer and executes via the fabric,
// with retry/failover under the configured resilience policy.
func (s *Server) infer(r *http.Request, who auth.TokenInfo, model string, req fabric.InferRequest) (fabric.InferResult, routeMeta, error) {
	var res fabric.InferResult
	meta, err := s.routeAndRun(r, model, func(ctx context.Context, endpointID string) error {
		var ierr error
		res, ierr = s.client.Infer(ctx, endpointID, req)
		return ierr
	})
	return res, meta, err
}

// routeAndRun is the resilience core of the live path: route → acquire
// breaker admission → run → record outcome, failing over to the next-best
// endpoint (failed ones excluded) until the attempt budget runs out. At the
// zero-value Retry policy this is exactly one route + one run with no
// breaker bookkeeping — behavior-identical to the historical path.
//
// An endpoint-side fabric.ErrUnauthorized triggers one token-cache recheck
// (the cached introspection may be stale) and, when the token proves still
// valid, one free replay against the same endpoint — an auth disagreement is
// not an endpoint health signal, so it neither feeds the breaker as a
// failure vote nor burns the failover budget.
func (s *Server) routeAndRun(r *http.Request, model string, run func(ctx context.Context, endpointID string) error) (routeMeta, error) {
	var (
		meta      routeMeta
		avoid     []string
		lastErr   error
		rechecked bool
	)
	for attempt := 0; attempt < s.cfg.Retry.Attempts(); attempt++ {
		if attempt > 0 {
			s.ins.failoverAttempts.Inc()
			if d := s.cfg.Retry.Delay(attempt-1, 0); d > 0 {
				s.clk.Sleep(d)
			}
		}
		decision, err := s.router.RouteAvoiding(model, avoid)
		if err != nil {
			// Failover exhausted the candidate set: the attempt error is
			// the story, not the bare routing failure. A first-attempt
			// routing error (lastErr == nil) passes through unchanged.
			if lastErr != nil && errors.Is(err, federation.ErrNoCandidates) {
				return meta, lastErr
			}
			return meta, err
		}
		id := decision.Endpoint.ID()
		if s.breakers != nil && !s.breakers.Acquire(id, s.breakerNow()) {
			// Lost the half-open probe race to a concurrent request: this
			// endpoint is spoken for, look elsewhere without spending an
			// attempt.
			avoid = append(avoid, id)
			attempt--
			continue
		}
		meta = routeMeta{endpoint: id, cluster: decision.Endpoint.ClusterName(), reason: string(decision.Reason)}
		s.met.Counter("route_" + string(decision.Reason)).Inc()
		s.ins.inferAttempts.Inc()
		ctx := r.Context()
		var cancel context.CancelFunc
		if s.cfg.Retry.AttemptTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.cfg.Retry.AttemptTimeout)
		}
		start := s.clk.Now()
		err = run(ctx, id)
		if cancel != nil {
			cancel()
		}
		if s.breakers != nil {
			// Caller-side cancellation and auth disagreements say nothing
			// about endpoint health; everything else votes.
			failure := err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, fabric.ErrUnauthorized)
			s.breakers.Record(id, s.breakerNow(), s.clk.Since(start), !failure)
		}
		if err == nil {
			if attempt > 0 {
				s.ins.failoverSuccess.Inc()
			}
			return meta, nil
		}
		lastErr = err
		if errors.Is(err, fabric.ErrUnauthorized) {
			if rechecked {
				return meta, err
			}
			rechecked = true
			s.ins.authRechecks.Inc()
			token := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
			if info, rerr := s.tokens.Recheck(token); rerr == nil && info.Active {
				attempt-- // token still valid: replay, endpoint stays eligible
				continue
			}
			return meta, err
		}
		if r.Context().Err() != nil {
			return meta, err
		}
		avoid = append(avoid, id)
	}
	return meta, lastErr
}

// writeInferError maps a routeAndRun failure onto the wire: all-circuits-
// open becomes a 503 with a Retry-After derived from the soonest half-open
// probe (load shed, counted), an endpoint-side credential rejection that
// survived the recheck becomes 401, and everything else stays the
// historical 502 api_error.
func (s *Server) writeInferError(w http.ResponseWriter, err error) {
	var allOpen *federation.AllOpenError
	switch {
	case errors.As(err, &allOpen):
		s.ins.loadShed.Inc()
		secs := int((allOpen.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.writeError(w, http.StatusServiceUnavailable, "overloaded_error", err.Error())
	case errors.Is(err, fabric.ErrUnauthorized):
		s.writeError(w, http.StatusUnauthorized, "invalid_request_error", err.Error())
	default:
		s.writeError(w, http.StatusBadGateway, "api_error", err.Error())
	}
}

type routeMeta struct {
	endpoint string
	cluster  string
	reason   string
}

func (s *Server) logRequest(who auth.TokenInfo, model string, meta routeMeta, kind store.RequestKind, promptTok, outputTok int, status string) {
	s.st.LogRequest(store.RequestLog{
		User:      who.Sub,
		Model:     model,
		Endpoint:  meta.endpoint,
		Cluster:   meta.cluster,
		Kind:      kind,
		PromptTok: promptTok,
		OutputTok: outputTok,
		Status:    status,
		CreatedAt: s.clk.Now(),
	})
	if outputTok > 0 {
		s.ins.outputTokens.Add(int64(outputTok))
	}
	s.met.Counter("requests_" + string(kind)).Inc()
}

// handleEmbeddings serves POST /v1/embeddings.
func (s *Server) handleEmbeddings(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	body, ok := s.readBody(w, r, 0)
	if !ok {
		return
	}
	var req openaiapi.EmbeddingRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_request_error", "malformed JSON: "+err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
		return
	}
	if err := s.policy.Authorize(who, req.Model); err != nil {
		s.writeError(w, http.StatusForbidden, "permission_error", err.Error())
		return
	}
	var res fabric.EmbedResult
	meta, err := s.routeAndRun(r, req.Model, func(ctx context.Context, endpointID string) error {
		var eerr error
		res, eerr = s.client.Embed(ctx, endpointID, fabric.EmbedRequest{Model: req.Model, Inputs: req.Input})
		return eerr
	})
	var promptTok int
	for _, in := range req.Input {
		promptTok += workload.EstimateTokens(in)
	}
	if err != nil {
		var allOpen *federation.AllOpenError
		if errors.As(err, &allOpen) {
			s.writeInferError(w, err)
			return
		}
		if meta.endpoint == "" {
			// Routing never reached an endpoint: the historical 404 for
			// unrouted models, unlogged as before.
			s.writeError(w, http.StatusNotFound, "invalid_request_error", err.Error())
			return
		}
		s.logRequest(who, req.Model, meta, store.KindEmbedding, promptTok, 0, "error")
		s.writeInferError(w, err)
		return
	}
	s.logRequest(who, req.Model, meta, store.KindEmbedding, promptTok, 0, "ok")
	data := make([]openaiapi.EmbeddingData, len(res.Vectors))
	for i, v := range res.Vectors {
		data[i] = openaiapi.EmbeddingData{Object: "embedding", Index: i, Embedding: v}
	}
	s.writeJSON(w, http.StatusOK, openaiapi.EmbeddingResponse{
		Object: "list",
		Model:  req.Model,
		Data:   data,
		Usage:  openaiapi.Usage{PromptTokens: promptTok, TotalTokens: promptTok},
	})
}

// handleModels serves GET /v1/models: the federated model registry.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	names := s.router.Models()
	list := openaiapi.ModelList{Object: "list"}
	for _, n := range names {
		entry := openaiapi.Model{ID: n, Object: "model", OwnedBy: "first"}
		if spec, err := s.catalog.Lookup(n); err == nil {
			entry.Kind = spec.Kind.String()
		}
		list.Data = append(list.Data, entry)
	}
	s.writeJSON(w, http.StatusOK, list)
}

// handleJobs serves GET /jobs (§4.3): scheduler-backed model availability.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	var resp openaiapi.JobsResponse
	names := s.router.Models()
	for _, model := range names {
		for _, ep := range s.router.Endpoints(model) {
			if d, ok := ep.Deployment(model); ok {
				st := d.Status()
				resp.Models = append(resp.Models, openaiapi.ModelJobStatus{
					Model: st.Model, Endpoint: st.Endpoint, Cluster: st.Cluster,
					State: st.State, Running: st.Running, Starting: st.Starting, Queued: st.Queued,
				})
			} else {
				resp.Models = append(resp.Models, openaiapi.ModelJobStatus{
					Model: model, Endpoint: ep.ID(), Cluster: ep.ClusterName(), State: "cold",
				})
			}
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleCreateBatch serves POST /v1/batches (§4.4).
func (s *Server) handleCreateBatch(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	if s.batches == nil {
		s.writeError(w, http.StatusNotImplemented, "api_error", "batch mode not configured")
		return
	}
	body, ok := s.readBody(w, r, 0)
	if !ok {
		return
	}
	var req openaiapi.CreateBatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_request_error", "malformed JSON: "+err.Error())
		return
	}
	if req.Model == "" {
		s.writeError(w, http.StatusBadRequest, "invalid_request_error", "model is required")
		return
	}
	if err := s.policy.Authorize(who, req.Model); err != nil {
		s.writeError(w, http.StatusForbidden, "permission_error", err.Error())
		return
	}
	decision, err := s.router.Route(req.Model)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "invalid_request_error", err.Error())
		return
	}
	id, err := s.batches.Submit(who.Sub, req.Model, req.InputLines, decision.Endpoint)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
		return
	}
	b, _ := s.st.GetBatch(id)
	s.writeJSON(w, http.StatusOK, batchToObject(b))
}

func batchToObject(b store.Batch) openaiapi.BatchObject {
	return openaiapi.BatchObject{
		ID:           b.ID,
		Object:       "batch",
		Model:        b.Model,
		Status:       string(b.State),
		Total:        b.Total,
		Completed:    b.Completed,
		OutputTokens: b.OutputTokens,
		CreatedAt:    b.CreatedAt.Unix(),
		Error:        b.Error,
	}
}

// handleListBatches serves GET /v1/batches.
func (s *Server) handleListBatches(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	batches := s.st.ListBatches(who.Sub)
	out := struct {
		Object string                  `json:"object"`
		Data   []openaiapi.BatchObject `json:"data"`
	}{Object: "list"}
	for _, b := range batches {
		out.Data = append(out.Data, batchToObject(b))
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleGetBatch serves GET /v1/batches/{id}.
func (s *Server) handleGetBatch(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	id := r.PathValue("id")
	b, ok := s.st.GetBatch(id)
	if !ok || (b.User != who.Sub && b.User != "") {
		s.writeError(w, http.StatusNotFound, "invalid_request_error", "no such batch")
		return
	}
	s.writeJSON(w, http.StatusOK, batchToObject(b))
}

// handleBatchResults serves GET /v1/batches/{id}/results as JSONL.
func (s *Server) handleBatchResults(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	id := r.PathValue("id")
	b, ok := s.st.GetBatch(id)
	if !ok || b.User != who.Sub {
		s.writeError(w, http.StatusNotFound, "invalid_request_error", "no such batch")
		return
	}
	lines, ok := s.batches.Results(id)
	if !ok {
		s.writeError(w, http.StatusConflict, "invalid_request_error", "batch not completed")
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, line := range lines {
		_ = enc.Encode(line)
	}
}

// handleCancelBatch serves POST /v1/batches/{id}/cancel.
func (s *Server) handleCancelBatch(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	id := r.PathValue("id")
	b, ok := s.st.GetBatch(id)
	if !ok || b.User != who.Sub {
		s.writeError(w, http.StatusNotFound, "invalid_request_error", "no such batch")
		return
	}
	s.batches.Cancel(id)
	b, _ = s.st.GetBatch(id)
	s.writeJSON(w, http.StatusOK, batchToObject(b))
}

// refreshAuthMetrics copies the token cache's internal stats into registry
// gauges so the dashboard can show herd suppression (singleflight
// coalescing) and cache population under storms. Pull-on-read keeps the
// cache's hot Introspect path free of registry traffic.
func (s *Server) refreshAuthMetrics() {
	hits, misses := s.tokens.Stats()
	s.met.Gauge("auth_cache_hits").Set(hits)
	s.met.Gauge("auth_cache_misses").Set(misses)
	s.met.Gauge("auth_cache_coalesced").Set(s.tokens.Coalesced())
	s.met.Gauge("auth_cache_entries").Set(int64(s.tokens.Len()))
	s.met.Gauge("auth_cache_invalidations").Set(s.tokens.Invalidations())
}

// refreshResilienceMetrics mirrors breaker state into gauges (pull-on-read,
// like the auth cache stats, keeping Record/CanAttempt registry-free).
func (s *Server) refreshResilienceMetrics() {
	if s.breakers == nil {
		return
	}
	open, halfOpen := s.breakers.StateCounts()
	s.met.Gauge("breaker_open").Set(open)
	s.met.Gauge("breaker_half_open").Set(halfOpen)
	s.met.Gauge("breaker_trips").Set(s.breakers.Trips())
}

// handleMetrics serves GET /metrics (Prometheus-style text).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshAuthMetrics()
	s.refreshResilienceMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, s.met.Expose())
}

// Dashboard is the §3.1.1 web dashboard's JSON document.
type Dashboard struct {
	GeneratedAt time.Time                  `json:"generated_at"`
	Totals      store.Totals               `json:"totals"`
	Metrics     metrics.RegistrySnapshot   `json:"metrics"`
	Models      []openaiapi.ModelJobStatus `json:"models"`
}

// handleDashboard serves GET /dashboard.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	s.refreshAuthMetrics()
	s.refreshResilienceMetrics()
	d := Dashboard{
		GeneratedAt: s.clk.Now(),
		Totals:      s.st.Totals(),
		Metrics:     s.met.Snapshot(),
	}
	names := s.router.Models()
	for _, model := range names {
		for _, ep := range s.router.Endpoints(model) {
			if dpl, ok := ep.Deployment(model); ok {
				st := dpl.Status()
				d.Models = append(d.Models, openaiapi.ModelJobStatus{
					Model: st.Model, Endpoint: st.Endpoint, Cluster: st.Cluster,
					State: st.State, Running: st.Running, Starting: st.Starting, Queued: st.Queued,
				})
			}
		}
	}
	s.writeJSON(w, http.StatusOK, d)
}
