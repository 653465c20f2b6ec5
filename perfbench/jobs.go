package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"ifdk/internal/ct/filter"
	"ifdk/internal/engine"
	"ifdk/pkg/api"
	"ifdk/pkg/client"
	"ifdk/pkg/volume"
)

// pollEvery is the Await poll period of the polling clients.
const pollEvery = 5 * time.Millisecond

// jobRec is one measured job as the client saw it.
type jobRec struct {
	spec   api.Spec
	class  string // generated class (service-mix) or the workload name
	id     string
	view   api.View // terminal view
	sec    float64  // due → terminal, seconds
	ttfp   float64  // due → first preview part or preview volume, seconds
	ttfs   float64  // due → first full-resolution part (progressive), seconds
	stream *client.StreamResult
	// preview is the volume a preview job's client received
	preview *volume.Volume
	err     error

	// traced run only
	traceID              string
	submitSpan, waitSpan int     // client spans the program's spans hang under
	stageSec, verifySec  float64 // program-reported stage.dataset and verify time
	lagSec               float64 // first /stream part − matching SSE event
	relaySec             float64 // routed − direct first-part delivery
}

// round is one fresh service stack: its set-up, its timed window and the
// jobs measured in it.
type round struct {
	setup   float64 // seconds from stack start to the first timed submit
	wall    float64 // seconds of the timed window
	recs    []*jobRec
	retries int64
	memMiB  float64 // peak RSS from stack start to the end of the timed window
	traced  bool    // the traced run alternates untraced and traced rounds
	batch   batchStats
	proxy   []float64 // routed − direct GET /v1/jobs/{id}, seconds
}

// runRounds repeats fresh rounds until the set-up and timed windows add up
// to opt.seconds, then verifies each round's outputs and teardown. A round
// function must stop its stack before returning.
func runRounds(opt options, out *outcome, one func(ctx context.Context, i int) (*round, error)) ([]*round, error) {
	ctx := context.Background()
	engine.Workers() // the shared compute pool is process-lifetime; start it before the baseline
	base := runtime.NumGoroutine()
	var rounds []*round
	measured := 0.0
	for i := 0; measured < opt.seconds || (opt.trace && i < 2); i++ {
		runtime.GC() // start each round from the same heap, not the last round's garbage
		debug.FreeOSMemory()
		r, err := one(ctx, i)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		measured += r.setup + r.wall
		if inUse := engine.InUseBytes(); inUse != 0 {
			out.problem("round %d: engine pools hold %d bytes after teardown", i, inUse)
		}
		if n, ok := settleGoroutines(base, 5*time.Second); !ok {
			out.problem("round %d: %d goroutines after teardown, baseline %d", i, n, base)
		}
	}
	return rounds, nil
}

// checkOutputs verifies every job of a round against the references and
// counts failures. It runs after the timed window, against the live stack.
func checkOutputs(ctx context.Context, lc *loadClient, refs *references, recs []*jobRec, out *outcome) {
	for _, rec := range recs {
		out.attempted++
		if err := checkJob(ctx, lc, refs, rec); err != nil {
			out.failed++
			out.problem("job %s (%s %s/%s): %v", rec.id, rec.class, rec.spec.Phantom, rec.spec.Window, err)
		}
	}
}

func checkJob(ctx context.Context, lc *loadClient, refs *references, rec *jobRec) error {
	if rec.err != nil {
		return rec.err
	}
	if rec.view.State != api.StateDone {
		return fmt.Errorf("ended %s: %s", rec.view.State, rec.view.Error)
	}
	if rec.spec.Quality == api.QualityPreview {
		got := rec.preview
		if got == nil {
			var err error
			if got, _, err = lc.Preview(ctx, rec.id); err != nil {
				return fmt.Errorf("fetching preview: %w", err)
			}
		}
		ref, err := refs.volume(rec.spec, true)
		if err != nil {
			return err
		}
		if !sameBits(ref, got) {
			return fmt.Errorf("preview differs from preview.Plan.Reconstruct")
		}
		return nil
	}
	after, err := lc.Stream(ctx, rec.id, nil)
	if err != nil {
		return fmt.Errorf("fetching volume: %w", err)
	}
	ref, err := refs.volume(rec.spec, false)
	if err != nil {
		return err
	}
	rel, err := relRMSE(ref, after.Volume)
	if err != nil {
		return err
	}
	if rel > maxRelRMSE {
		return fmt.Errorf("relative RMSE %.3g against serial fdk exceeds %g", rel, maxRelRMSE)
	}
	if rec.stream != nil {
		if !sameBits(rec.stream.Volume, after.Volume) {
			return fmt.Errorf("streamed volume differs from the volume fetched afterwards")
		}
		if rec.spec.Quality == api.QualityProgressive {
			pref, err := refs.volume(rec.spec, true)
			if err != nil {
				return err
			}
			if !sameBits(rec.stream.Preview, pref) {
				return fmt.Errorf("streamed preview differs from preview.Plan.Reconstruct")
			}
		}
	}
	return nil
}

// awaitJob submits spec and polls it to a terminal state.
func awaitJob(ctx context.Context, lc *loadClient, spec api.Spec) (api.View, error) {
	t0 := time.Now()
	v, err := lc.Submit(ctx, spec)
	if err != nil {
		return api.View{}, err
	}
	if v.State.Terminal() {
		return v, nil
	}
	return lc.await(ctx, v.ID, t0)
}

// stageScans submits one preview-quality job per scan and waits for it:
// the service stages the dataset without filling any full-resolution key.
func stageScans(ctx context.Context, lc *loadClient, scans []scan, win filter.Window) error {
	for _, sc := range scans {
		spec := sc.spec(win)
		spec.Quality = api.QualityPreview
		v, err := awaitJob(ctx, lc, spec)
		if err != nil {
			return fmt.Errorf("staging %v: %w", sc, err)
		}
		if v.State != api.StateDone {
			return fmt.Errorf("staging %v ended %s: %s", sc, v.State, v.Error)
		}
	}
	return nil
}

// collect gathers one field of each finished record keep accepts.
func collect(recs []*jobRec, keep func(*jobRec) bool, field func(*jobRec) float64) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.err == nil && keep(r) {
			xs = append(xs, field(r))
		}
	}
	return xs
}

func all(*jobRec) bool { return true }

// untracedRecs are the jobs the end-to-end metrics are taken from.
func untracedRecs(rounds []*round) []*jobRec {
	var recs []*jobRec
	for _, r := range rounds {
		if !r.traced {
			recs = append(recs, r.recs...)
		}
	}
	return recs
}

// timedWall is the summed timed window of the untraced rounds.
func timedWall(rounds []*round) float64 {
	wall := 0.0
	for _, r := range rounds {
		if !r.traced {
			wall += r.wall
		}
	}
	return wall
}

// fullUpdates sums the voxel updates of the full-resolution jobs that were
// computed (cache hits and previews update nothing at full resolution).
func fullUpdates(recs []*jobRec) float64 {
	work := 0.0
	for _, r := range recs {
		if r.err == nil && !r.view.CacheHit && r.spec.Quality != api.QualityPreview {
			work += updates(r.spec)
		}
	}
	return work
}

// setEndToEnd fills the metrics every workload reports. ttfp and ttfs are
// the workload-specific samples described in main's package comment.
func setEndToEnd(out *outcome, rounds []*round, jobSec, ttfp, ttfs []float64, updates, wall float64) {
	var setups, mems []float64
	for _, r := range rounds {
		if !r.traced {
			setups = append(setups, r.setup)
			mems = append(mems, r.memMiB)
		}
	}
	out.set("setup_s", "s", median(setups))
	out.set("job_s_p50", "s", median(jobSec))
	out.set("job_s_p90", "s", quantile(jobSec, 0.9))
	out.set("gups", "GUPS", updates/wall/1e9)
	out.set("ttfp_s_p50", "s", median(ttfp))
	out.set("ttfs_s_p50", "s", median(ttfs))
	out.set("mem_peak_mib", "MiB", median(mems))
	for i, r := range rounds {
		xs := collect(r.recs, all, func(r *jobRec) float64 { return r.sec })
		out.note("round %d%s: setup %.4g s, %d jobs, p50 %.4g s, p90 %.4g s, peak RSS %.4g MiB",
			i, map[bool]string{true: " (traced)"}[r.traced], r.setup, len(xs), median(xs), quantile(xs, 0.9), r.memMiB)
	}
	out.note("rounds %d, jobs %d (p90 quoted with %d samples; highest percentile with ≥10 beyond: p%g), ttfp samples %d, ttfs samples %d",
		len(rounds), len(jobSec), len(jobSec), supportedPercentile(len(jobSec)), len(ttfp), len(ttfs))
}

// updates is nx·ny·nz·np, the voxel updates of one full-resolution job.
func updates(s api.Spec) float64 {
	return float64(s.NX) * float64(s.NX) * float64(s.NX) * float64(s.NP)
}
