package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ifdk/pkg/api"
)

// reconScans are the three datasets of recon and progressive: one per
// phantom at the paper-shaped 64³ problem (np = 4·nx, nu = 2·nx).
func reconScans() []scan {
	var out []scan
	for _, ph := range phantoms {
		out = append(out, scan{phantom: ph, nx: 64, nu: 128, np: 256})
	}
	return out
}

// reconSpecs is the seeded order of the 15 distinct full-quality keys:
// every phantom under every window.
func reconSpecs(seed int64) []api.Spec {
	var specs []api.Spec
	for _, sc := range reconScans() {
		for _, w := range windows {
			specs = append(specs, sc.spec(w))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// runRecon is the single-problem time to solution: one client submits a
// full-quality job, awaits it, and submits the next. Each round starts a
// fresh server so no measured key is ever cached.
func runRecon(opt options) (*outcome, error) {
	out := newOutcome()
	refs := newReferences()
	tr := newTracer(false)
	specs := reconSpecs(opt.seed)
	if err := refs.precompute(specs); err != nil {
		return nil, err
	}
	rounds, err := runRounds(opt, out, func(ctx context.Context, i int) (*round, error) {
		tr.on = opt.trace && i%2 == 1
		t0 := time.Now()
		mem := sampleRSS()
		st, err := startStack(1, 2, false)
		if err != nil {
			return nil, err
		}
		lc := newLoadClient(st.url)
		defer lc.close()
		r := &round{traced: tr.on}
		if err := stageScans(ctx, lc, reconScans(), windows[0]); err != nil {
			_ = st.stop(ctx)
			return nil, err
		}
		r.setup = time.Since(t0).Seconds()

		w0 := time.Now()
		for _, spec := range specs {
			rec := &jobRec{spec: spec, class: "recon"}
			t := time.Now()
			rec.view, rec.err = tr.awaitJob(ctx, lc, rec)
			rec.sec = time.Since(t).Seconds()
			rec.id = rec.view.ID
			if rec.err == nil && rec.view.CacheHit {
				rec.err = fmt.Errorf("measured job was served from the cache")
			}
			r.recs = append(r.recs, rec)
		}
		r.wall = time.Since(w0).Seconds()
		r.memMiB = mem.peak()
		r.retries = lc.retries.Load()

		checkOutputs(ctx, lc, refs, r.recs, out)
		if tr.on {
			tr.collectProgramSpans(ctx, lc, r.recs)
			r.batch = scrapeBatch(ctx, st)
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
	setEndToEnd(out, rounds, jobSec, jobSec, jobSec, fullUpdates(recs), timedWall(rounds))
	out.reportMetrics()
	return out, nil
}
