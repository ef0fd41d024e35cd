package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// spanKind names a boundary the benchmark itself crosses into a layer. Every
// span is recorded from this package, around a public call of the repo's
// packages; spans inside the program are a later change.
type spanKind int32

const (
	spanRep spanKind = iota // one replication / one traced request (the root)
	spanSimRun
	spanArrive
	spanSample
	spanCollect
	spanExperiment
	spanClientCall
	spanGatewayServe
	spanIntrospect
	spanLogin
	spanParse
	spanRoute
	spanInfer
	spanGenerate
	spanStoreLog
	spanObserve
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bench.rep", "sim.run", "desmodel.arrive", "workload.sample", "desmodel.collect",
	"experiments.run", "client.call", "gateway.serve", "auth.introspect", "auth.login",
	"openaiapi.parse", "federation.route", "fabric.infer", "serving.generate",
	"store.log", "metrics.observe",
}

// span is one record of the trace file.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int32 `json:"parent"`
	// Req is the request the span belongs to (0: not tied to one request).
	Req int64 `json:"req"`
}

// maxStoredSpans bounds the span list kept for the trace file. Every span,
// stored or not, is added to the per-kind totals the metrics are made from:
// a 10⁶-request replication makes 2×10⁶ spans, and the file is for reading
// one request's path, not for re-deriving the totals.
const maxStoredSpans = 1 << 16

// tracer keeps spans in memory. It is single-goroutine; concurrent clients
// each own one and merge them when the phase ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	count [numSpanKinds]int64
	total [numSpanKinds]int64 // nanoseconds
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// openSpan is the handle between begin and end.
type openSpan struct {
	kind  spanKind
	id    int32 // index in spans, -1 when beyond maxStoredSpans
	start int64
}

func (t *tracer) begin(kind spanKind, parent int32, req int64) openSpan {
	if t == nil {
		return openSpan{id: -1}
	}
	o := openSpan{kind: kind, id: -1, start: time.Since(t.t0).Nanoseconds()}
	if len(t.spans) < maxStoredSpans {
		o.id = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: spanNames[kind], StartNS: o.start, Parent: parent, Req: req})
	}
	return o
}

func (t *tracer) end(o openSpan) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	if o.id >= 0 {
		t.spans[o.id].EndNS = now
	}
	t.count[o.kind]++
	t.total[o.kind] += now - o.start
}

// merge folds another goroutine's tracer into t, re-basing parent indices.
func (t *tracer) merge(o *tracer) {
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if len(t.spans) == maxStoredSpans {
			break
		}
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	for k := range t.count {
		t.count[k] += o.count[k]
		t.total[k] += o.total[k]
	}
}

// meanNS is the mean duration of kind's spans. Per-layer timings are means,
// not medians, so that a parent's self time is its mean minus its children's.
func (t *tracer) meanNS(kind spanKind) float64 {
	if t.count[kind] == 0 {
		return 0
	}
	return float64(t.total[kind]) / float64(t.count[kind])
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Totals   map[string]spanSum `json:"totals"`
	Counters map[string]float64 `json:"counters"`
	Spans    []span             `json:"spans"`
}

type spanSum struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
}

func (t *tracer) write(path, workload string, seed int64, counters map[string]float64) error {
	tf := traceFile{Workload: workload, Seed: seed, Totals: map[string]spanSum{}, Counters: counters, Spans: t.spans}
	for k := spanKind(0); k < numSpanKinds; k++ {
		if t.count[k] > 0 {
			tf.Totals[spanNames[k]] = spanSum{Count: t.count[k], TotalNS: t.total[k]}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(tf); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuProfile samples the benchmark's own process: spans cannot reach inside
// Kernel.Run or below Gateway.ServeHTTP, a sampled stack can.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

var (
	internalFrame = regexp.MustCompile(`^github\.com/argonne-first/first/internal/([a-z0-9]+)\.`)
	gcFrame       = regexp.MustCompile(`^runtime\.(gcBgMarkWorker|gcDrain|gcMark|gcSweep|gcAssist|bgsweep|bgscavenge|sweepone|scanobject|markroot|greyobject|gcStart|gcResetMarkState|\(\*gcWork\)|\(\*sweepLocked\)|\(\*mspan\)\.sweep)`)
)

// stopAndAttribute ends the profile and credits every sample to exactly one
// bucket, so the shares sum to 1: the innermost frame under internal/<pkg>
// names the layer (its callees in the runtime and the standard library are
// that layer's cost); failing that, a frame of this package makes it the
// load generator's, a collector frame the collector's, and the rest is the
// scheduler, timers and idle spinning ("other").
func (p *cpuProfile) stopAndAttribute() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", exe, p.path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return attributeTraces(out), nil
}

// attributeTraces parses `pprof -traces` text: samples are separated by
// dashed rules; a sample's first line is "<count> <leaf>", the following
// lines its callers, outermost last.
func attributeTraces(out []byte) map[string]float64 {
	buckets := map[string]float64{}
	var total float64
	var n float64
	var stack []string
	flush := func() {
		if n > 0 {
			buckets[bucketOf(stack)] += n
			total += n
		}
		n, stack = 0, stack[:0]
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
		case n == 0 && len(fields) >= 2 && len(stack) == 0:
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				continue // header lines (File:, Type:, Time:, Duration:)
			}
			n = v
			stack = append(stack, fields[1])
		case n > 0:
			stack = append(stack, fields[0])
		}
	}
	flush()
	if total > 0 {
		for k := range buckets {
			buckets[k] /= total
		}
	}
	return buckets
}

func bucketOf(stack []string) string {
	for _, fn := range stack {
		if m := internalFrame.FindStringSubmatch(fn); m != nil {
			return m[1]
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "generator"
		}
	}
	for _, fn := range stack {
		if gcFrame.MatchString(fn) {
			return "gc"
		}
	}
	return "other"
}
