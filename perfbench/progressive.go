package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"ifdk/pkg/api"
	"ifdk/pkg/client"
)

// progressiveSpecs is the seeded order of the 12 measured keys: every
// phantom under the first four windows. The fifth window stages the
// datasets, so no measured preview can come from the cache.
func progressiveSpecs(seed int64) []api.Spec {
	var specs []api.Spec
	for _, sc := range reconScans() {
		for _, w := range windows[:4] {
			s := sc.spec(w)
			s.Quality = api.QualityProgressive
			specs = append(specs, s)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// runProgressive is the instant-delivery path: one client submits a
// progressive job through the router and consumes it with
// client.StreamProgressive before submitting the next.
func runProgressive(opt options) (*outcome, error) {
	out := newOutcome()
	refs := newReferences()
	tr := newTracer(false)
	specs := progressiveSpecs(opt.seed)
	if err := refs.precompute(specs); err != nil {
		return nil, err
	}
	rounds, err := runRounds(opt, out, func(ctx context.Context, i int) (*round, error) {
		tr.on = opt.trace && i%2 == 1
		t0 := time.Now()
		mem := sampleRSS()
		st, err := startStack(2, 1, true)
		if err != nil {
			return nil, err
		}
		lc := newLoadClient(st.url)
		defer lc.close()
		// Every backend stages every dataset: rendezvous placement spreads
		// a phantom's windows over both.
		var direct []*loadClient
		for _, b := range st.backends {
			d := newLoadClient(b.srv.url)
			defer d.close()
			direct = append(direct, d)
			if err := stageScans(ctx, d, reconScans(), windows[4]); err != nil {
				_ = st.stop(ctx)
				return nil, err
			}
		}
		hits0 := previewCacheHits(ctx, st)
		r := &round{traced: tr.on}
		r.setup = time.Since(t0).Seconds()

		w0 := time.Now()
		for _, spec := range specs {
			rec := &jobRec{spec: spec, class: "progressive"}
			streamJob(ctx, tr, lc, direct, rec)
			r.recs = append(r.recs, rec)
		}
		r.wall = time.Since(w0).Seconds()
		r.memMiB = mem.peak()
		r.retries = lc.retries.Load()
		if hits := previewCacheHits(ctx, st); hits != hits0 {
			out.problem("round %d: %g measured previews were served from the cache", i, hits-hits0)
		}

		checkOutputs(ctx, lc, refs, r.recs, out)
		if tr.on {
			tr.collectProgramSpans(ctx, lc, r.recs)
			r.batch = scrapeBatch(ctx, st)
			r.proxy = routerProxyCost(ctx, lc, direct, r.recs)
		}
		return r, st.stop(ctx)
	})
	if err != nil {
		return nil, err
	}
	if opt.trace {
		return out, layerMetrics(opt, out, refs, rounds, tr)
	}
	recs := untracedRecs(rounds)
	jobSec := collect(recs, all, func(r *jobRec) float64 { return r.sec })
	ttfp := collect(recs, all, func(r *jobRec) float64 { return r.ttfp })
	ttfs := collect(recs, all, func(r *jobRec) float64 { return r.ttfs })
	setEndToEnd(out, rounds, jobSec, ttfp, ttfs, fullUpdates(recs), timedWall(rounds))
	out.reportMetrics()
	return out, nil
}

// streamJob submits rec's spec and consumes it with StreamProgressive,
// timing the first preview part, the first full-resolution part and the
// terminal part. Traced, it also runs an SSE consumer and a direct stream
// to the owning backend beside the routed one, for the stream and relay
// lags.
func streamJob(ctx context.Context, tr *tracer, lc *loadClient, direct []*loadClient, rec *jobRec) {
	var firstPreview, firstSlice time.Time
	hooks := client.StreamHooks{
		OnPreview: func(int, int, int) {
			if firstPreview.IsZero() {
				firstPreview = time.Now()
			}
		},
		OnSlice: func(int, int) {
			if firstSlice.IsZero() {
				firstSlice = time.Now()
			}
		},
	}
	t0 := time.Now()
	var v api.View
	root := 0
	if tr.on {
		var end func()
		root, end = tr.begin(rec)
		defer end()
		v, rec.err = tr.submit(ctx, lc, rec, root)
	} else {
		v, rec.err = lc.Submit(ctx, rec.spec)
	}
	if rec.err != nil {
		return
	}
	rec.id = v.ID
	var side sync.WaitGroup
	var eventAt, directAt time.Time
	if tr.on {
		var endStream func()
		rec.waitSpan, endStream = tr.open(rec.traceID, root, "client.stream")
		defer endStream()
		side.Add(2)
		go func() { // SSE: when the first slice event reaches the client
			defer side.Done()
			_, _ = lc.Watch(ctx, v.ID, func(e api.Event) error {
				if e.Type == api.EventSlice && eventAt.IsZero() {
					eventAt = time.Now()
				}
				return nil
			})
		}()
		go func() { // the same job's stream straight from its backend
			defer side.Done()
			d := direct[ownerOf(v.ID)]
			_, _ = d.StreamProgressive(ctx, v.ID, client.StreamHooks{OnSlice: func(int, int) {
				if directAt.IsZero() {
					directAt = time.Now()
				}
			}})
		}()
	}
	rec.stream, rec.err = lc.StreamProgressive(ctx, v.ID, hooks)
	rec.sec = time.Since(t0).Seconds()
	side.Wait()
	if rec.err != nil {
		return
	}
	rec.view = rec.stream.Final
	rec.ttfp = firstPreview.Sub(t0).Seconds()
	rec.ttfs = firstSlice.Sub(t0).Seconds()
	if !eventAt.IsZero() {
		rec.lagSec = firstSlice.Sub(eventAt).Seconds()
	}
	if !directAt.IsZero() {
		rec.relaySec = firstSlice.Sub(directAt).Seconds()
	}
	switch {
	case rec.view.CacheHit:
		rec.err = fmt.Errorf("measured job was served from the cache")
	case firstPreview.IsZero() || firstSlice.IsZero():
		rec.err = fmt.Errorf("stream carried no preview or no full-resolution part")
	case firstSlice.Before(firstPreview):
		rec.err = fmt.Errorf("a full-resolution part preceded the preview")
	}
}

// ownerOf is the backend index a routed job ID names ("b1-j00000003" → 1).
func ownerOf(id string) int {
	if node, _, ok := strings.Cut(id, "-"); ok && len(node) == 2 && node[0] == 'b' {
		return int(node[1] - '0')
	}
	return 0
}
