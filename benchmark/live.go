package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/argonne-first/first/internal/auth"
	"github.com/argonne-first/first/internal/client"
	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/core"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/gateway"
	"github.com/argonne-first/first/internal/metrics"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/serving"
	"github.com/argonne-first/first/internal/sim"
	"github.com/argonne-first/first/internal/store"
	"github.com/argonne-first/first/internal/workload"
)

// The live workloads drive the in-process stack the way its heaviest users
// do (the livefed driver, the SDK examples): closed loop, each client waits
// for its reply before sending the next request. live-chat is sleep-bound and
// has two clients, one per core of the sandbox the sizes were chosen on; more
// measured the Go timer scheduler more than the stack. live-hot is CPU-bound
// and has one: a second busy caller leaves the collector's workers no core of
// their own, and in interleaved runs on the shared host two callers' best
// window and median spread twice as wide as one caller's (see README.md).
const (
	liveModel   = perfmodel.Llama8B
	chatClients = 2
	hotClients  = 1

	// live-chat: the clock the livefed family runs on. 48 simulated hours —
	// a token's life — pass in 8.6 s of wall, so each client logs in again
	// every chatRelogin requests, as livefed's driver does.
	chatClockScale  = 20000
	chatRelogin     = 50
	chatStreamEvery = 5
	chatMaxTokens   = 16
	chatWarmup      = 100 // untimed requests per client in set-up

	// live-hot: no request sleeps, so the scale only has to keep the tokens
	// and cache entries made in set-up alive: 48 h / 2000 = 86 s of wall,
	// above the longest run the contract allows.
	hotClockScale = 2000
	hotUsers      = 64
	hotBodies     = 8
	hotModelsPct  = 10
	hotWarmup     = 2000
	// The cache fill is real inference; it runs one caller per instance
	// however many callers the timed phase has.
	hotFillers = 2
)

// A phase is cut into windows. live-chat's hold some 500 requests and are
// only counted: the workload is sleep-bound and reports whole-phase readings.
// live-hot's are what it reports the best of, and hold some 1 500 requests:
// the shared host's slow spells outlast a run, but they are made of bursts,
// and a run whose best quarter-second was 45 % below the usual still had a
// hundredth within 30 % (medians: 66 % and 20 % above). A window that short
// also falls between two collector cycles; see phaseTotals.rate.
const (
	chatWindow = 250 * time.Millisecond
	hotWindow  = 10 * time.Millisecond
)

// windowOf is the length of the windows a phase of dur is cut into. A phase
// too short for 40 of the workload's own (the smoke test's) gets 40 shorter
// ones.
func windowOf(dur, window time.Duration) time.Duration {
	if dur > 0 && dur < 40*window {
		return dur / 40
	}
	return window
}

// countingClock wraps the clock handed to core.Config and, while on, counts
// what the stack asks of it: how often it sleeps, for how long in simulated
// time, and how long the host took instead.
type countingClock struct {
	clock.Clock
	scale   int64
	on      atomic.Bool
	sleeps  atomic.Int64
	idealNS atomic.Int64 // requested ÷ scale
	wallNS  atomic.Int64
}

func (c *countingClock) Sleep(d time.Duration) {
	if !c.on.Load() {
		c.Clock.Sleep(d)
		return
	}
	t := time.Now()
	c.Clock.Sleep(d)
	c.wallNS.Add(time.Since(t).Nanoseconds())
	c.sleeps.Add(1)
	c.idealNS.Add(int64(d) / c.scale)
}

// liveSystem is one booted installation plus what the clients need of it.
type liveSystem struct {
	sys   *core.System
	clk   clock.Clock
	count *countingClock // nil in untraced runs
	hot   bool
	// clients is how many closed-loop callers a phase runs at once.
	clients int

	chat []*chatClient
	hotc []*hotClient
}

// bootLive builds the installation both live workloads share: two clusters,
// one Llama-3.1-8B instance on each. What differs is what must not expire.
func bootLive(hot, counted bool) (*liveSystem, error) {
	scale := int64(chatClockScale)
	if hot {
		scale = hotClockScale
	}
	ls := &liveSystem{hot: hot, clk: clock.NewScaled(scale), clients: chatClients}
	if hot {
		ls.clients = hotClients
	}
	if counted {
		ls.count = &countingClock{Clock: ls.clk, scale: scale}
		ls.clk = ls.count
	}
	names := []string{"lf0", "lf1"}
	specs := make([]core.ClusterSpec, len(names))
	for i, n := range names {
		specs[i] = core.ClusterSpec{Name: n, Nodes: 4, GPUsPerNode: 4, Backfill: true}
	}
	dep := fabric.DeploymentConfig{MinInstances: 1, MaxInstances: 1}
	// Response cache on in both: live-chat writes it (unique prompts: every
	// request a miss and a put), live-hot reads it.
	gw := gateway.Config{CacheTTL: time.Hour}
	tokenTTL := 24 * time.Hour
	if hot {
		// Nothing may expire or wake up inside the timed phase: cache
		// entries and introspections outlive the tokens, the limiter is on
		// but never binds (a user sends well under one request per
		// simulated second), and the deployment control loop stays quiet.
		gw = gateway.Config{CacheTTL: 47 * time.Hour, UserRatePerSec: 100}
		tokenTTL = 47 * time.Hour
		dep.AutoScalePeriod = 24 * time.Hour
	}
	sys, err := core.NewSystem(core.Config{
		Clock:         ls.clk,
		Clusters:      specs,
		Deployments:   []core.DeploymentSpec{{Model: liveModel, Clusters: names, Config: dep}},
		Gateway:       gw,
		TokenCacheTTL: tokenTTL,
	})
	if err != nil {
		return nil, err
	}
	ls.sys = sys
	// Cold start: wait until both instances have loaded their weights.
	for _, n := range names {
		d, ok := sys.Endpoints["ep-"+n].Deployment(liveModel)
		if !ok {
			sys.Close()
			return nil, fmt.Errorf("endpoint ep-%s does not host %s", n, liveModel)
		}
		for d.ReadyCount() < 1 {
			ls.clk.Sleep(time.Second)
		}
	}
	return ls, nil
}

// clientStats is what one client saw in one phase.
type clientStats struct {
	latNS        []int64
	attempted    int
	failed       int
	unauthorized int
	chat         int // chat requests among attempted
	cacheHits    int // X-First-Cache: hit, where the client can see headers
	queuedPeak   int
	window       time.Duration
	windows      []int // completions per window
	problems     []string
}

// fail counts a failed request, a 401 separately, and keeps the first few
// messages.
func (s *clientStats) fail(err error, what string) {
	s.failed++
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusUnauthorized {
		s.unauthorized++
	}
	if len(s.problems) < 3 {
		s.problems = append(s.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

func (s *clientStats) done(start, phaseStart time.Time) {
	now := time.Now()
	s.latNS = append(s.latNS, now.Sub(start).Nanoseconds())
	w := int(now.Sub(phaseStart) / s.window)
	for len(s.windows) <= w {
		s.windows = append(s.windows, 0)
	}
	s.windows[w]++
}

// spanHandler records the gateway.serve span of a client's request. The
// client sets parent and req before the call; the handler goroutine the
// SDK's in-process transport starts is the only other user of tr, and the
// client does not touch tr again until it has read the response to its end.
type spanHandler struct {
	h      http.Handler
	tr     *tracer
	parent int32
	req    int64
}

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := s.tr.begin(spanGatewayServe, s.parent, s.req)
	s.h.ServeHTTP(w, r)
	s.tr.end(sp)
}

// chatClient is one closed-loop user of live-chat: its own identity, SDK
// client and request stream, kept across warm-up and timed phases.
type chatClient struct {
	ls   *liveSystem
	id   int
	sub  string
	rng  *sim.RNG
	via  *spanHandler
	cli  *client.Client
	sent int
}

func newChatClient(ls *liveSystem, id int, rng *sim.RNG) (*chatClient, error) {
	c := &chatClient{ls: ls, id: id, sub: fmt.Sprintf("bench-c%d", id), rng: rng}
	if err := ls.sys.RegisterUser(c.sub, c.sub+"@anl.gov"); err != nil {
		return nil, err
	}
	c.via = &spanHandler{h: ls.sys.Gateway}
	c.cli = client.New("http://bench.local", "", client.WithHandler(c.via))
	return c, nil
}

// next generates the client's next request: a unique prompt of seeded
// length, so no two requests share a cache key.
func (c *chatClient) next() openaiapi.ChatCompletionRequest {
	c.sent++
	prompt := fmt.Sprintf("bench c%d q%07d %s", c.id, c.sent, workload.SyntheticPrompt(c.rng, 6+c.rng.Intn(24)))
	return openaiapi.ChatCompletionRequest{
		Model:     liveModel,
		Messages:  []openaiapi.Message{{Role: "user", Content: prompt}},
		MaxTokens: chatMaxTokens,
	}
}

// run sends requests until the deadline, or count of them when count > 0.
func (c *chatClient) run(phaseStart time.Time, dur time.Duration, count int, tr *tracer) clientStats {
	st := clientStats{window: windowOf(dur, chatWindow)}
	c.via.tr = tr
	ctx := context.Background()
	for n := 0; ; n++ {
		if count > 0 && n == count || count == 0 && time.Since(phaseStart) >= dur {
			return st
		}
		if c.sent%chatRelogin == 0 {
			sp := tr.begin(spanLogin, -1, 0)
			g, err := c.ls.sys.Login(c.sub)
			tr.end(sp)
			if err != nil {
				st.fail(err, "login")
				return st
			}
			c.cli.SetToken(g.AccessToken)
		}
		req := c.next()
		id := int64(c.id)<<32 | int64(c.sent)
		st.attempted++
		st.chat++
		start := time.Now()
		root := tr.begin(spanRep, -1, id)
		call := tr.begin(spanClientCall, root.id, id)
		c.via.parent, c.via.req = call.id, id
		var err error
		if c.sent%chatStreamEvery == 0 {
			// A nil error means the stream ended in [DONE]; a cut stream
			// comes back as openaiapi.ErrStreamTruncated.
			var text string
			text, err = c.cli.ChatCompletionStream(ctx, req, nil)
			if err == nil && text == "" {
				err = errors.New("empty stream")
			}
		} else {
			var resp openaiapi.ChatCompletionResponse
			resp, err = c.cli.ChatCompletion(ctx, req)
			if err == nil && (len(resp.Choices) == 0 || resp.Choices[0].Message == nil ||
				resp.Choices[0].Message.Content == "" || resp.Usage.CompletionTokens <= 0) {
				err = errors.New("empty completion")
			}
		}
		tr.end(call)
		tr.end(root)
		if err != nil {
			st.fail(err, fmt.Sprintf("request %d of client %d", c.sent, c.id))
			continue
		}
		st.done(start, phaseStart)
		if tr != nil {
			if q := c.ls.sys.Client.QueuedTasks(); q > st.queuedPeak {
				st.queuedPeak = q
			}
		}
	}
}

// leanWriter is the reusable minimal http.ResponseWriter of live-hot's load
// generator: httptest's recorder and request constructor were a third of the
// samples in a first harness, more than the gateway path under test.
type leanWriter struct {
	hdr    http.Header
	status int
	body   []byte
}

func (w *leanWriter) Header() http.Header { return w.hdr }

func (w *leanWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *leanWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *leanWriter) reset() {
	clear(w.hdr)
	w.status = 0
	w.body = w.body[:0]
}

// hotUser is one of live-hot's identities: a token and the chat bodies whose
// responses set-up put into the response cache.
type hotUser struct {
	// hdr is shared by every request of the user; the gateway only reads it.
	hdr    http.Header
	bodies [][]byte
	want   [][]byte // the validated response each body must repeat
}

// hotPlan is live-hot's input, generated from the seed.
type hotPlan struct {
	users      []hotUser
	modelsBody []byte
}

const hotModelsSlot = 0xffff

// leanBody is the reusable request body.
type leanBody struct{ bytes.Reader }

func (*leanBody) Close() error { return nil }

var (
	hotChatURL   = &url.URL{Scheme: "http", Host: "bench.local", Path: "/v1/chat/completions"}
	hotModelsURL = &url.URL{Scheme: "http", Host: "bench.local", Path: "/v1/models"}
)

// hotClient is one closed-loop caller of Gateway.ServeHTTP.
type hotClient struct {
	ls    *liveSystem
	plan  *hotPlan
	sched []uint16 // user<<3 | body, or hotModelsSlot; cycled
	pos   int
	w     leanWriter
	body  leanBody
	tr    *tracer // set for the length of a traced phase
}

// newHotCaller returns a client that can serve but has no schedule yet.
func newHotCaller(ls *liveSystem, plan *hotPlan) *hotClient {
	return &hotClient{ls: ls, plan: plan, w: leanWriter{hdr: http.Header{}}}
}

func newHotClient(ls *liveSystem, plan *hotPlan, rng *sim.RNG) *hotClient {
	bodies := len(plan.users[0].bodies)
	c := newHotCaller(ls, plan)
	c.sched = make([]uint16, 1<<16)
	for i := range c.sched {
		if rng.Intn(100) < hotModelsPct {
			c.sched[i] = hotModelsSlot
		} else {
			c.sched[i] = uint16(rng.Intn(hotUsers)<<3 | rng.Intn(bodies))
		}
	}
	return c
}

// serve issues one request straight into the gateway. The request is a
// struct literal over a parsed URL and the user's prebuilt header:
// http.NewRequestWithContext re-parses the URL on every call, which alone
// was 11 % of the samples.
func (c *hotClient) serve(method string, u *url.URL, usr *hotUser, body []byte) error {
	req := &http.Request{Method: method, URL: u, Host: u.Host, Header: usr.hdr,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
	if body != nil {
		c.body.Reset(body)
		req.Body = &c.body
		req.ContentLength = int64(len(body))
	}
	c.w.reset()
	sp := c.tr.begin(spanGatewayServe, -1, int64(c.pos))
	c.ls.sys.Gateway.ServeHTTP(&c.w, req)
	c.tr.end(sp)
	if c.w.status/100 != 2 {
		return &client.APIError{StatusCode: c.w.status, Message: string(c.w.body)}
	}
	return nil
}

func (c *hotClient) run(phaseStart time.Time, dur time.Duration, count int, tr *tracer) clientStats {
	st := clientStats{window: windowOf(dur, hotWindow), latNS: make([]int64, 0, 1<<20)}
	c.tr = tr
	for n := 0; ; n++ {
		// The deadline is read every 64th request: the clock read would
		// otherwise be a measurable part of a 10 µs request.
		if count > 0 && n == count || count == 0 && n&63 == 0 && time.Since(phaseStart) >= dur {
			return st
		}
		slot := c.sched[c.pos&(len(c.sched)-1)]
		c.pos++
		st.attempted++
		start := time.Now()
		var err error
		if slot == hotModelsSlot {
			u := &c.plan.users[c.pos%hotUsers]
			if err = c.serve(http.MethodGet, hotModelsURL, u, nil); err == nil && !bytes.Equal(c.w.body, c.plan.modelsBody) {
				err = errors.New("model list changed")
			}
		} else {
			u, b := &c.plan.users[slot>>3], slot&7
			st.chat++
			if err = c.serve(http.MethodPost, hotChatURL, u, u.bodies[b]); err == nil {
				if h := c.w.hdr["X-First-Cache"]; len(h) == 1 && h[0] == "hit" {
					st.cacheHits++
				}
				// Set-up validated want (non-empty content, tokens > 0);
				// a hit must repeat it byte for byte.
				if !bytes.Equal(c.w.body, u.want[b]) {
					err = errors.New("response differs from the one set-up validated")
				}
			}
		}
		if err != nil {
			st.fail(err, fmt.Sprintf("request %d", c.pos))
			continue
		}
		st.done(start, phaseStart)
	}
}

// fillHot registers live-hot's users, logs them in and sends every chat body
// once, so that the timed phase finds each response in the cache.
func fillHot(ls *liveSystem, bodies int, rng *sim.RNG) (*hotPlan, error) {
	plan := &hotPlan{users: make([]hotUser, hotUsers)}
	for i := range plan.users {
		sub := fmt.Sprintf("bench-u%02d", i)
		if err := ls.sys.RegisterUser(sub, sub+"@anl.gov"); err != nil {
			return nil, err
		}
		g, err := ls.sys.Login(sub)
		if err != nil {
			return nil, err
		}
		u := &plan.users[i]
		u.hdr = http.Header{"Authorization": {"Bearer " + g.AccessToken}, "Content-Type": {"application/json"}}
		u.bodies, u.want = make([][]byte, bodies), make([][]byte, bodies)
		for b := range u.bodies {
			body, err := json.Marshal(openaiapi.ChatCompletionRequest{
				Model:     liveModel,
				Messages:  []openaiapi.Message{{Role: "user", Content: fmt.Sprintf("bench u%02d b%d %s", i, b, workload.SyntheticPrompt(rng, 6+rng.Intn(24)))}},
				MaxTokens: chatMaxTokens,
			})
			if err != nil {
				return nil, err
			}
			u.bodies[b] = body
		}
	}
	// The fill is real inference through the fabric; the users are split
	// between the fillers.
	errs := make([]error, hotFillers)
	var wg sync.WaitGroup
	for w := 0; w < hotFillers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newHotCaller(ls, plan)
			for i := w; i < hotUsers; i += hotFillers {
				u := &plan.users[i]
				for b := range u.bodies {
					if err := c.serve(http.MethodPost, hotChatURL, u, u.bodies[b]); err != nil {
						errs[w] = err
						return
					}
					var resp openaiapi.ChatCompletionResponse
					if err := json.Unmarshal(c.w.body, &resp); err != nil || len(resp.Choices) == 0 || resp.Choices[0].Message == nil ||
						resp.Choices[0].Message.Content == "" || resp.Usage.CompletionTokens <= 0 {
						errs[w] = fmt.Errorf("fill: empty completion for user %d body %d (%v)", i, b, err)
						return
					}
					u.want[b] = append([]byte(nil), c.w.body...)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c := newHotCaller(ls, plan)
	if err := c.serve(http.MethodGet, hotModelsURL, &plan.users[0], nil); err != nil {
		return nil, err
	}
	plan.modelsBody = append([]byte(nil), c.w.body...)
	return plan, nil
}

// setUpLive is one round of set-up: boot, cold start, identities, logins,
// cache fill (live-hot) and an untimed warm-up through every client.
func setUpLive(cfg runConfig, hot bool) (*liveSystem, error) {
	ls, err := bootLive(hot, cfg.trace)
	if err != nil {
		return nil, err
	}
	root := sim.NewRNG(cfg.seed)
	var warm []clientStats
	if hot {
		plan, err := fillHot(ls, cfg.sized(hotBodies), root.Fork())
		if err != nil {
			ls.sys.Close()
			return nil, err
		}
		for i := 0; i < ls.clients; i++ {
			ls.hotc = append(ls.hotc, newHotClient(ls, plan, root.Fork()))
		}
		warm = ls.phase(0, cfg.sized(hotWarmup), nil)
	} else {
		for i := 0; i < ls.clients; i++ {
			c, err := newChatClient(ls, i, root.Fork())
			if err != nil {
				ls.sys.Close()
				return nil, err
			}
			ls.chat = append(ls.chat, c)
		}
		warm = ls.phase(0, cfg.sized(chatWarmup), nil)
	}
	for _, st := range warm {
		if st.failed > 0 {
			ls.sys.Close()
			return nil, fmt.Errorf("warm-up: %s", st.problems[0])
		}
	}
	return ls, nil
}

// phase runs every client at once, for dur or for count requests each.
// trs, when not nil, holds one tracer per client.
func (ls *liveSystem) phase(dur time.Duration, count int, trs []*tracer) []clientStats {
	stats := make([]clientStats, ls.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < ls.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var tr *tracer
			if trs != nil {
				tr = trs[i]
			}
			if ls.hot {
				stats[i] = ls.hotc[i].run(start, dur, count, tr)
			} else {
				stats[i] = ls.chat[i].run(start, dur, count, tr)
			}
		}(i)
	}
	wg.Wait()
	return stats
}

// phaseTotals folds the clients' statistics of one phase.
type phaseTotals struct {
	clientStats
	ok      int
	windows []float64 // completions per full window, all clients
	winP50  []float64 // per full window, latency quantiles in ms
	winP95  []float64
}

func foldStats(stats []clientStats) phaseTotals {
	var t phaseTotals
	t.window = stats[0].window
	full := -1
	for _, s := range stats {
		t.latNS = append(t.latNS, s.latNS...)
		t.attempted += s.attempted
		t.failed += s.failed
		t.unauthorized += s.unauthorized
		t.chat += s.chat
		t.cacheHits += s.cacheHits
		t.problems = append(t.problems, s.problems...)
		if s.queuedPeak > t.queuedPeak {
			t.queuedPeak = s.queuedPeak
		}
		// The last window of each client is cut short by the deadline.
		if n := len(s.windows) - 1; full < 0 || n < full {
			full = n
		}
	}
	t.ok = len(t.latNS)
	offsets := make([]int, len(stats))
	var win []int64
	for w := 0; w < full; w++ {
		win = win[:0]
		for i, s := range stats {
			// A client appends latencies in order of completion, so window
			// w's are the next windows[w] of them.
			win = append(win, s.latNS[offsets[i]:offsets[i]+s.windows[w]]...)
			offsets[i] += s.windows[w]
		}
		t.windows = append(t.windows, float64(len(win)))
		if len(win) > 0 {
			sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
			t.winP50 = append(t.winP50, float64(win[rank(len(win), 0.5)])/1e6)
			t.winP95 = append(t.winP95, float64(win[rank(len(win), 0.95)])/1e6)
		}
	}
	sort.Slice(t.latNS, func(i, j int) bool { return t.latNS[i] < t.latNS[j] })
	return t
}

// rate is the phase's 2xx responses per second. live-chat is sleep-bound:
// its wall time is timer overshoot, which the host moves both ways, so the
// whole phase is the steadiest reading. live-hot is CPU-bound: the host only
// ever takes requests away from a window, so its best window is what the
// front-end sustains when left alone, by the host and, a window being
// shorter than the gap between two collector cycles, by the collector. The
// collector's share shows in allocs_per_req, host.gc_cpu_share and the
// whole-phase rate (bench.whole_req_per_s).
func (t phaseTotals) rate(cpuBound bool, wall time.Duration) float64 {
	if cpuBound && len(t.windows) > 0 {
		return slices.Max(t.windows) / t.window.Seconds()
	}
	return float64(t.ok) / wall.Seconds()
}

// latencies are the phase's p50 and p95 in milliseconds: over all requests
// when sleep-bound, of the least-disturbed window each when CPU-bound.
func (t phaseTotals) latencies(cpuBound bool) (p50, p95 float64) {
	if cpuBound && len(t.winP50) > 0 {
		return slices.Min(t.winP50), slices.Min(t.winP95)
	}
	return t.latMS(0.5), t.latMS(0.95)
}

// latMS reads a latency quantile in milliseconds.
func (t phaseTotals) latMS(q float64) float64 {
	if len(t.latNS) == 0 {
		return 0
	}
	return float64(t.latNS[rank(len(t.latNS), q)]) / 1e6
}

// checkLive applies the live correctness checks to a phase.
func checkLive(o *outcome, t phaseTotals, hot bool, cacheHits int64) {
	o.problems = append(o.problems, t.problems...)
	if t.unauthorized > 0 {
		o.problemf("%d responses were 401: a token or an introspection expired inside the run", t.unauthorized)
	}
	if hot {
		if t.chat > 0 && float64(t.cacheHits) < 0.99*float64(t.chat) {
			o.problemf("only %d of %d chat requests were response-cache hits", t.cacheHits, t.chat)
		}
	} else if cacheHits != 0 {
		o.problemf("%d response-cache hits on unique prompts", cacheHits)
	}
}

// registrySnap is the part of the gateway's public registry the benchmark
// reads at phase boundaries. GET /metrics makes the gateway refresh the
// token-cache gauges first.
type registrySnap struct {
	counters map[string]int64
	gauges   map[string]int64
}

func (ls *liveSystem) snap() registrySnap {
	req, err := http.NewRequest(http.MethodGet, "http://bench.local/metrics", nil)
	if err == nil {
		ls.sys.Gateway.ServeHTTP(&leanWriter{hdr: http.Header{}}, req)
	}
	s := ls.sys.Metrics.Snapshot()
	return registrySnap{s.Counters, s.Gauges}
}

func runLive(cfg runConfig) outcome {
	hot := cfg.workload == "live-hot"
	o := outcome{metrics: map[string]float64{}}
	var ls *liveSystem
	var setups []float64
	for begin := time.Now(); cfg.anotherSetup(len(setups), time.Since(begin)); {
		if ls != nil {
			ls.sys.Close()
		}
		t := time.Now()
		var err error
		if ls, err = setUpLive(cfg, hot); err != nil {
			o.problemf("set-up: %v", err)
			return o
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer ls.sys.Close()
	budget := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		before := ls.snap()
		runtime.GC()
		meter := startPhase()
		t := foldStats(ls.phase(budget, 0, nil))
		cost := meter.stop()
		after := ls.snap()
		checkLive(&o, t, hot, after.counters["cache_hits"]-before.counters["cache_hits"])
		o.attempted, o.failed = t.attempted, t.failed
		if t.ok == 0 {
			o.problemf("no request succeeded")
			return o
		}
		o.metrics["setup_s"] = slices.Min(setups)
		o.metrics["req_per_s"] = t.rate(hot, cost.wall)
		o.metrics["lat_p50_ms"], _ = t.latencies(hot)
		o.metrics["allocs_per_req"] = float64(cost.mallocs) / float64(t.ok)
		o.notes = append(o.notes, fmt.Sprintf("%d requests in %d windows of %v; over the whole phase %.0f req/s, p50 %.4f, p95 %.4f (%d beyond), p99 %.4f ms; window rate IQR %.1f %% of median",
			t.ok, len(t.windows), t.window, float64(t.ok)/cost.wall.Seconds(), t.latMS(0.5), t.latMS(0.95), t.ok/20, t.latMS(0.99), iqrPct(t.windows)))
		return o
	}
	runLiveTraced(cfg, ls, &o, budget)
	return o
}

// runLiveTraced spends the budget in three parts: the clients untraced, the
// clients under spans, clock counting and the CPU profile, and a replay of
// the same request stream layer by layer through the layers' public
// functions — which is how a span gets around a layer the gateway calls
// itself.
func runLiveTraced(cfg runConfig, ls *liveSystem, o *outcome, budget time.Duration) {
	part := budget * 35 / 100
	runtime.GC()
	plainMeter := startPhase()
	plain := foldStats(ls.phase(part, 0, nil))
	plainCost := plainMeter.stop()

	t0 := time.Now()
	trs := make([]*tracer, ls.clients)
	for i := range trs {
		trs[i] = newTracer(t0)
	}
	before := ls.snap()
	prof, err := startCPUProfile(filepath.Join(cfg.outDir, cfg.workload+".cpu.pprof"))
	if err != nil {
		o.problemf("cpu profile: %v", err)
		return
	}
	ls.count.on.Store(true)
	tracedStart := time.Now()
	tracedStats := ls.phase(part, 0, trs)
	tracedWall := time.Since(tracedStart)
	ls.count.on.Store(false)
	shares, err := prof.stopAndAttribute()
	if err != nil {
		o.problemf("cpu profile: %v", err)
	}
	traced := foldStats(tracedStats) // sorts: kept out of the profile
	after := ls.snap()
	delta := func(name string) float64 { return float64(after.counters[name] - before.counters[name]) }
	checkLive(o, plain, ls.hot, 0)
	checkLive(o, traced, ls.hot, int64(delta("cache_hits")))
	o.attempted = plain.attempted + traced.attempted
	o.failed = plain.failed + traced.failed
	if plain.ok == 0 || traced.ok == 0 {
		o.problemf("no request succeeded")
		return
	}

	replayLayers(cfg.seed, ls, trs, budget-2*part, o)
	tr := trs[0]
	for _, other := range trs[1:] {
		tr.merge(other)
	}

	m := o.metrics
	us := func(k spanKind) float64 { return tr.meanNS(k) / 1e3 }
	m["client.call_us"] = us(spanClientCall)
	m["gateway.serve_us"] = us(spanGatewayServe)
	m["auth.introspect_ns"] = tr.meanNS(spanIntrospect)
	m["auth.login_us"] = us(spanLogin)
	m["openaiapi.parse_ns"] = tr.meanNS(spanParse)
	m["federation.route_ns"] = tr.meanNS(spanRoute)
	m["fabric.infer_us"] = us(spanInfer)
	m["serving.generate_us"] = us(spanGenerate)
	m["fabric.self_us"] = us(spanInfer) - us(spanGenerate)
	m["store.log_ns"] = tr.meanNS(spanStoreLog)
	m["metrics.observe_ns"] = tr.meanNS(spanObserve)
	// Every replayed layer is a child of the gateway's serve span on this
	// workload's path (live-hot replays only the layers a cache hit reaches).
	m["gateway.self_us"] = us(spanGatewayServe) - us(spanIntrospect) - us(spanParse) - us(spanRoute) -
		us(spanInfer) - us(spanStoreLog) - us(spanObserve)

	reqs := float64(traced.ok)
	if hits, misses := float64(after.gauges["auth_cache_hits"]-before.gauges["auth_cache_hits"]),
		float64(after.gauges["auth_cache_misses"]-before.gauges["auth_cache_misses"]); hits+misses > 0 {
		m["auth.hit_share"] = hits / (hits + misses)
	}
	if traced.chat > 0 {
		m["gateway.cache_hit_share"] = delta("cache_hits") / float64(traced.chat)
	}
	if routed := delta("route_model-active") + delta("route_cluster-has-capacity") + delta("route_first-configured"); routed > 0 {
		m["gateway.route_active_share"] = delta("route_model-active") / routed
	}
	m["fabric.queued_peak"] = float64(traced.queuedPeak)
	sleeps, ideal, wall := float64(ls.count.sleeps.Load()), float64(ls.count.idealNS.Load()), float64(ls.count.wallNS.Load())
	m["clock.sleeps_per_req"] = sleeps / reqs
	m["clock.sleep_ideal_us_per_req"] = ideal / 1e3 / reqs
	m["clock.sleep_wall_us_per_req"] = wall / 1e3 / reqs
	if ideal > 0 {
		m["clock.overshoot_ratio"] = wall / ideal
	}
	cpuShares(m, shares)
	hostMetrics(m, plainCost, plain.windows)
	_, m["bench.lat_p95_ms"] = plain.latencies(ls.hot)
	m["bench.whole_req_per_s"] = float64(plain.ok) / plainCost.wall.Seconds()
	plainRate := plain.rate(ls.hot, plainCost.wall)
	m["host.trace_overhead_pct"] = 100 * (plainRate - traced.rate(ls.hot, tracedWall)) / plainRate

	counters := map[string]float64{}
	for k, v := range after.counters {
		counters[k] = float64(v - before.counters[k])
	}
	if err := tr.write(cfg.tracePath(), cfg.workload, cfg.seed, counters); err != nil {
		o.problemf("span file: %v", err)
	}
}

// layerProbe holds what the layer-by-layer replay calls into: the booted
// system's auth service, router and fabric client, plus stand-alone instances
// of the layers the gateway owns privately (token cache, store, registry).
type layerProbe struct {
	ls     *liveSystem
	token  string
	tokens *auth.TokenCache
	logs   *store.Store
	reg    *metrics.Registry
}

const probeUser = "bench-probe"

func newLayerProbe(ls *liveSystem) (*layerProbe, error) {
	sys := ls.sys
	if err := sys.RegisterUser(probeUser, probeUser+"@anl.gov"); err != nil {
		return nil, err
	}
	grant, err := sys.Login(probeUser)
	if err != nil {
		return nil, err
	}
	p := &layerProbe{ls: ls, token: grant.AccessToken, logs: store.New(0), reg: metrics.NewRegistry(),
		tokens: auth.NewTokenCache(sys.Auth, ls.clk, probeUser, sys.Auth.RegisterConfidentialClient(probeUser), 24*time.Hour)}
	// The one miss; the replay times hits, which is what a request pays.
	if _, err := p.tokens.Introspect(p.token); err != nil {
		return nil, fmt.Errorf("introspect: %w", err)
	}
	return p, nil
}

// replayLayers sends a request stream through the layers one at a time, on
// as many goroutines as the phase had clients: a sleep's overshoot depends on
// how busy the scheduler is, so a single-goroutine replay would time a
// different system. live-chat replays every layer a request crosses; live-hot
// only those a response-cache hit reaches (token cache, parser, metrics).
func replayLayers(seed int64, ls *liveSystem, trs []*tracer, budget time.Duration, o *outcome) {
	p, err := newLayerProbe(ls)
	if err != nil {
		o.problemf("replay: %v", err)
		return
	}
	errs := make([]error, len(trs))
	root := sim.NewRNG(seed)
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		gen := &chatClient{id: 8 + i, rng: root.Fork()}
		go func(i int, tr *tracer) {
			defer wg.Done()
			errs[i] = p.run(gen, tr, budget)
		}(i, tr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			o.problemf("replay: %v", err)
		}
	}
}

func (p *layerProbe) run(gen *chatClient, tr *tracer, budget time.Duration) error {
	sys := p.ls.sys
	ctx := context.Background()
	eng, err := serving.NewEngine(serving.Config{Model: perfmodel.Default.MustLookup(liveModel), GPU: perfmodel.A100_40})
	if err != nil {
		return err
	}
	live := serving.NewLiveEngine(eng, p.ls.clk)
	defer live.Close()

	start := time.Now()
	for n := 0; n < 4000 && time.Since(start) < budget; n++ {
		id := int64(gen.id)<<32 | int64(n+1)
		root := tr.begin(spanRep, -1, id)
		body, err := json.Marshal(gen.next())
		if err != nil {
			return err
		}

		sp := tr.begin(spanIntrospect, root.id, id)
		_, err = p.tokens.Introspect(p.token)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("introspect: %w", err)
		}

		sp = tr.begin(spanParse, root.id, id)
		var req openaiapi.ChatCompletionRequest
		if err = json.Unmarshal(body, &req); err == nil {
			err = req.Validate()
		}
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("parse: %w", err)
		}

		var took time.Duration
		if !p.ls.hot {
			if n%chatRelogin == 0 {
				sp = tr.begin(spanLogin, root.id, id)
				_, err = sys.Login(probeUser)
				tr.end(sp)
				if err != nil {
					return fmt.Errorf("login: %w", err)
				}
			}
			sp = tr.begin(spanRoute, root.id, id)
			d, err := sys.Router.Route(req.Model)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("route: %w", err)
			}
			prompt := req.Messages[0].Content
			promptTok := workload.EstimateTokens(prompt)
			t := time.Now()
			sp = tr.begin(spanInfer, root.id, id)
			res, err := sys.Client.Infer(ctx, d.Endpoint.ID(), fabric.InferRequest{
				Model: req.Model, PromptTok: promptTok, OutputTok: req.MaxTokens, Prompt: prompt, WantText: true})
			tr.end(sp)
			took = time.Since(t)
			if err != nil || res.OutputTok <= 0 {
				return fmt.Errorf("infer: %v (%d tokens)", err, res.OutputTok)
			}
			sp = tr.begin(spanGenerate, root.id, id)
			c := live.Generate(ctx, promptTok, req.MaxTokens)
			tr.end(sp)
			if c.Err != nil {
				return fmt.Errorf("generate: %w", c.Err)
			}
			sp = tr.begin(spanStoreLog, root.id, id)
			p.logs.LogRequest(store.RequestLog{User: probeUser, Model: req.Model, Endpoint: d.Endpoint.ID(), Cluster: d.Endpoint.ClusterName(),
				Kind: store.KindChat, PromptTok: res.PromptTok, OutputTok: res.OutputTok, Latency: took, Status: "ok", CreatedAt: p.ls.clk.Now()})
			tr.end(sp)
		}

		sp = tr.begin(spanObserve, root.id, id)
		p.reg.Counter("http_requests").Inc()
		p.reg.Histogram("http_request_seconds").Observe(took)
		tr.end(sp)
		tr.end(root)
	}
	return nil
}
