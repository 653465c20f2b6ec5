package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"ifdk/pkg/api"
)

// span is one timed interval: a call the benchmark made into a layer, or a
// program-reported stage merged in as its child (program = true). Spans of
// one job share a trace ID.
type span struct {
	trace      string
	id, parent int
	name       string
	start, end time.Time
	program    bool
}

func (s span) sec() float64 { return s.end.Sub(s.start).Seconds() }

// tracer keeps spans in memory for the whole run; when off, every method
// is a no-op and the timed paths call the SDK directly.
type tracer struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on} }

// record adds a finished span and returns its id (ids start at 1; 0 means
// "no parent").
func (t *tracer) record(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.id
}

// open starts a span whose end is set by the returned function.
func (t *tracer) open(trace string, parent int, name string) (int, func()) {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{trace: trace, id: id, parent: parent, name: name, start: time.Now()})
	t.mu.Unlock()
	return id, func() {
		now := time.Now()
		t.mu.Lock()
		t.spans[id-1].end = now
		t.mu.Unlock()
	}
}

// awaitJob is the polling client's job: submit, then await. Traced, it
// joins the job to a fresh trace so the program's spans can be merged.
func (t *tracer) awaitJob(ctx context.Context, lc *loadClient, rec *jobRec) (api.View, error) {
	if !t.on {
		return awaitJob(ctx, lc, rec.spec)
	}
	root, endRoot := t.begin(rec)
	defer endRoot()
	t0 := time.Now()
	v, err := t.submit(ctx, lc, rec, root)
	if err != nil || v.State.Terminal() {
		return v, err
	}
	var endAwait func()
	rec.waitSpan, endAwait = t.open(rec.traceID, root, "client.await")
	defer endAwait()
	return lc.await(ctx, v.ID, t0)
}

// begin opens a traced job's root span under a fresh trace ID.
func (t *tracer) begin(rec *jobRec) (int, func()) {
	rec.traceID = api.NewTraceID()
	return t.open(rec.traceID, 0, "client.job")
}

// submit is SubmitTraced inside a client.submit span.
func (t *tracer) submit(ctx context.Context, lc *loadClient, rec *jobRec, root int) (api.View, error) {
	var end func()
	rec.submitSpan, end = t.open(rec.traceID, root, "client.submit")
	defer end()
	rec.waitSpan = rec.submitSpan // a cache hit is served inside the submit
	return lc.SubmitTraced(ctx, rec.spec, api.FormatTraceParent(rec.traceID, api.NewSpanID()))
}

// collectProgramSpans fetches each traced job's span tree from the service
// and merges its stages in as program-reported spans: the router hop under
// the client's submit span, the job's stages under the span the client
// waited in, each program span under its program parent.
func (t *tracer) collectProgramSpans(ctx context.Context, lc *loadClient, recs []*jobRec) {
	for _, rec := range recs {
		if rec.traceID == "" || rec.id == "" {
			continue
		}
		tr, err := lc.Trace(ctx, rec.id)
		if err != nil {
			continue
		}
		ids := map[string]int{}
		jobSpan := ""
		for _, s := range tr.Spans {
			if s.Name == "job" {
				jobSpan = s.SpanID
			}
		}
		for _, s := range tr.Spans {
			start, err := time.Parse(time.RFC3339Nano, s.Start)
			if err != nil || s.Name == "job" {
				continue // the job span is the client span's server-side twin
			}
			ids[s.SpanID] = t.record(span{
				trace: rec.traceID, name: programLayer(s.Name) + "." + s.Name,
				start: start, end: start.Add(time.Duration(s.DurationSec * float64(time.Second))), program: true,
			})
			switch s.Name {
			case "stage.dataset":
				rec.stageSec += s.DurationSec
			case "verify":
				rec.verifySec += s.DurationSec
			}
		}
		t.mu.Lock()
		for _, s := range tr.Spans {
			id, ok := ids[s.SpanID]
			if !ok {
				continue
			}
			parent, known := ids[s.ParentSpanID]
			switch {
			case s.Name == "router.proxy":
				parent = rec.submitSpan
			case s.ParentSpanID == jobSpan || !known:
				parent = rec.waitSpan
			}
			t.spans[id-1].parent = parent
		}
		t.mu.Unlock()
	}
}

// programLayer maps a service span name to the layer whose code runs it.
func programLayer(name string) string {
	switch name {
	case "queue.wait", "stage.dataset", "cache.hit":
		return "service"
	case "compute":
		return "core"
	case "filter.round":
		return "filter"
	case "allgather.round", "reduce":
		return "mpi"
	case "backproject":
		return "backproject"
	case "store":
		return "pfs"
	case "verify":
		return "fdk"
	case "router.proxy":
		return "router"
	}
	return "service"
}

// layerOf is the layer a span name belongs to: the text before its first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns, per trace, each layer's self time: every span's
// duration minus the part of its interval covered by the union of its
// children, summed by layer. Overlapping children are counted once.
func selfTimes(spans []span) map[string]map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]map[string]float64{}
	for _, s := range spans {
		self := s.sec() - covered(s, children[s.id])
		if out[s.trace] == nil {
			out[s.trace] = map[string]float64{}
		}
		out[s.trace][layerOf(s.name)] += self
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total.Seconds()
}
