package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"ifdk/pkg/api"
)

// The service-mix workload: an open loop at a fixed offered rate.
const (
	mixRate     = 10.0 // offered jobs/s: about 40% of this mix's measured capacity (~24/s on 2 cores)
	mixRoundSec = 6    // seconds of arrivals per round
	mixNX       = 32
	mixStaged   = 3 // scans staged during set-up, one per phantom, each with one warm full key
	settleSec   = 2 // a key or scan is reused only this long after its first job was due
)

// mixClasses are the generated job classes with their target shares.
var mixClasses = []struct {
	name  string
	share float64
}{
	{"repeat", 0.20},   // exact repeat of a settled full job: a cache hit
	{"rewindow", 0.45}, // new window on a staged scan: no staging, batches with its plan
	{"newscan", 0.25},  // a scan never seen: staging on the job's path
	{"preview", 0.10},  // quality=preview of a staged scan
}

// mixScans is the scan pool: every phantom at every np within ±10% of
// 4·nx in steps of R·C = 4, phantoms interleaved. A round stages nearly all
// of it (mixStaged plus a quarter of its jobs), so new scans never run out.
func mixScans() []scan {
	var out []scan
	base := 4 * mixNX
	step := base / 10 / 4 * 4
	lo, hi := base-step, base+step
	for np := lo; np <= hi; np += 4 {
		for _, ph := range phantoms {
			out = append(out, scan{phantom: ph, nx: mixNX, nu: 2 * mixNX, np: np})
		}
	}
	return out
}

// mixJob is one scheduled arrival.
type mixJob struct {
	due   float64 // seconds after the round's first arrival
	spec  api.Spec
	class string
}

// mixPlan is one round's generated input: the scans staged and the full
// jobs completed during set-up, then the arrival schedule.
type mixPlan struct {
	staged []scan
	warm   []api.Spec
	jobs   []mixJob
}

// mixSchedule generates round's plan: uniform arrivals at mixRate, class
// counts exact to the target shares, and each class drawn only where it is
// feasible (a repeat needs a settled key, a new window a settled scan with
// an unused window). The class sequence depends on the round alone, so
// every seed offers the same traffic shape; the seed picks the scans,
// windows and keys that fill it.
func mixSchedule(seed int64, round, n int) mixPlan {
	classRng := rand.New(rand.NewSource(int64(round) + 1))
	rng := rand.New(rand.NewSource(seed*1000 + int64(round)))
	// Shuffle each phantom's scans among themselves only: staged and new
	// scans then cycle through the phantoms, whose staging costs differ,
	// the same way in every seed.
	pool := mixScans()
	for ph := range phantoms {
		var idx []int
		for i := ph; i < len(pool); i += len(phantoms) {
			idx = append(idx, i)
		}
		rng.Shuffle(len(idx), func(a, b int) { pool[idx[a]], pool[idx[b]] = pool[idx[b]], pool[idx[a]] })
	}
	var p mixPlan
	type dated struct {
		spec api.Spec // a full-quality job, or a scan's first job
		at   float64  // when that job was due
	}
	var fulls, scans []dated  // in the order they were first due
	used := map[string]bool{} // full keys and preview keys taken
	key := func(s api.Spec) string { return fmt.Sprint(scanOf(s), s.Window, s.Quality) }
	next := 0
	for ; next < mixStaged; next++ { // staged scans, each with one warm key
		sc := pool[next]
		p.staged = append(p.staged, sc)
		w := sc.spec(windows[rng.Intn(len(windows))])
		p.warm = append(p.warm, w)
		fulls = append(fulls, dated{w, math.Inf(-1)})
		scans = append(scans, dated{w, math.Inf(-1)})
		used[key(w)] = true
		staging := sc.spec(windows[0])
		staging.Quality = api.QualityPreview
		used[key(staging)] = true
	}
	remaining := map[string]int{}
	for _, c := range mixClasses {
		remaining[c.name] = int(math.Round(c.share * float64(n)))
	}
	verifyEvery := 0
	for i := 0; i < n; i++ {
		at := float64(i) / mixRate
		var repeats, fresh, previews []api.Spec // candidates at this arrival
		for _, f := range fulls {
			if f.at <= at-settleSec {
				repeats = append(repeats, f.spec)
			}
		}
		for _, d := range scans {
			if d.at > at-settleSec {
				continue
			}
			for _, w := range windows {
				s := scanOf(d.spec).spec(w)
				if !used[key(s)] {
					fresh = append(fresh, s)
				}
				s.Quality = api.QualityPreview
				if !used[key(s)] {
					previews = append(previews, s)
				}
			}
		}
		feasible := map[string]bool{
			"repeat": len(repeats) > 0, "rewindow": len(fresh) > 0,
			"newscan": next < len(pool), "preview": len(previews) > 0,
		}
		total := 0
		for _, c := range mixClasses {
			if feasible[c.name] {
				total += remaining[c.name]
			}
		}
		if total == 0 {
			break
		}
		pick := classRng.Intn(total)
		class := ""
		for _, c := range mixClasses {
			if !feasible[c.name] {
				continue
			}
			if pick < remaining[c.name] {
				class = c.name
				break
			}
			pick -= remaining[c.name]
		}
		remaining[class]--
		var spec api.Spec
		switch class {
		case "repeat":
			spec = repeats[rng.Intn(len(repeats))]
		case "rewindow":
			spec = fresh[rng.Intn(len(fresh))]
		case "newscan":
			spec = pool[next].spec(windows[rng.Intn(len(windows))])
			next++
			scans = append(scans, dated{spec, at})
		case "preview":
			spec = previews[rng.Intn(len(previews))]
		}
		if class == "rewindow" || class == "newscan" {
			verifyEvery++
			spec.Verify = verifyEvery%6 == 0
			fulls = append(fulls, dated{spec, at})
		}
		used[key(spec)] = true
		p.jobs = append(p.jobs, mixJob{due: at, spec: spec, class: class})
	}
	return p
}

// runMix offers the mix at a fixed rate from one scheduling goroutine and
// times each job from when it was due, so a stalled generator or a slow
// submit counts against the jobs behind it.
func runMix(opt options) (*outcome, error) {
	out := newOutcome()
	tr := newTracer(false)
	n := int(mixRate * mixRoundSec)
	var refs *references // each round's keys are new; its references go with it
	var lags []float64
	rounds, err := runRounds(opt, out, func(ctx context.Context, i int) (*round, error) {
		tr.on = opt.trace && i%2 == 1
		plan := mixSchedule(opt.seed, i, n)
		refs = newReferences()
		t0 := time.Now()
		mem := sampleRSS()
		st, err := startStack(1, 2, false)
		if err != nil {
			return nil, err
		}
		lc := newLoadClient(st.url)
		lc.fine = true
		defer lc.close()
		if err := stageScans(ctx, lc, plan.staged, windows[0]); err != nil {
			_ = st.stop(ctx)
			return nil, err
		}
		for _, w := range plan.warm {
			if v, err := awaitJob(ctx, lc, w); err != nil || v.State != api.StateDone {
				_ = st.stop(ctx)
				return nil, fmt.Errorf("warm-up job %v: %v %s", w, err, v.Error)
			}
		}
		r := &round{traced: tr.on}
		r.setup = time.Since(t0).Seconds()

		var wg sync.WaitGroup
		var mu sync.Mutex
		inflight := 0
		var backlog []int
		start := time.Now()
		for _, job := range plan.jobs {
			rec := &jobRec{spec: job.spec, class: job.class}
			r.recs = append(r.recs, rec)
			due := start.Add(time.Duration(job.due * float64(time.Second)))
			time.Sleep(time.Until(due))
			lags = append(lags, time.Since(due).Seconds())
			mu.Lock()
			backlog = append(backlog, inflight)
			inflight++
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rec.class == "preview" {
					rec.view, rec.err = previewJob(ctx, tr, lc, rec, due)
				} else {
					rec.view, rec.err = tr.awaitJob(ctx, lc, rec)
				}
				rec.sec = time.Since(due).Seconds()
				rec.id = rec.view.ID
				mu.Lock()
				inflight--
				mu.Unlock()
			}()
		}
		wg.Wait()
		r.wall = time.Since(start).Seconds()
		r.memMiB = mem.peak()
		r.retries = lc.retries.Load()
		if growing(backlog) {
			out.problem("round %d: backlog still growing when arrivals stopped (%v): offered rate above capacity", i, backlog[len(backlog)-len(backlog)/4:])
		}
		checkClasses(out, plan, r.recs, st.backends[0].m.Store().List("ds/"))
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
		out.set("loadgen.lag_s_p90", "s", quantile(lags, 0.9))
		return out, layerMetrics(opt, out, refs, rounds, tr)
	}
	recs := untracedRecs(rounds)
	jobSec := collect(recs, all, func(r *jobRec) float64 { return r.sec })
	ttfp := collect(recs, func(r *jobRec) bool { return r.class == "preview" }, func(r *jobRec) float64 { return r.ttfp })
	ttfs := collect(recs, func(r *jobRec) bool { return r.class != "preview" }, func(r *jobRec) float64 { return r.sec })
	setEndToEnd(out, rounds, jobSec, ttfp, ttfs, fullUpdates(recs), timedWall(rounds))
	out.note("offered %.3g jobs/s; generator lateness p90 %.3g s", mixRate, quantile(lags, 0.9))
	for _, c := range mixClasses {
		xs := collect(recs, func(r *jobRec) bool { return r.class == c.name }, func(r *jobRec) float64 { return r.sec })
		waits := collect(recs, func(r *jobRec) bool { return r.class == c.name }, func(r *jobRec) float64 { return r.view.WaitSec })
		out.note("class %-8s n=%3d  p50 %.4g s  p90 %.4g s  wait p50 %.4g s", c.name, len(xs), median(xs), quantile(xs, 0.9), median(waits))
	}
	out.reportMetrics()
	return out, nil
}

// previewJob is a preview request as an interactive client makes it:
// submit, follow the event stream until the preview exists and fetch it
// (client.WatchPreview, the time to first preview), then poll the job to
// its terminal state.
func previewJob(ctx context.Context, tr *tracer, lc *loadClient, rec *jobRec, due time.Time) (api.View, error) {
	t0 := time.Now()
	var v api.View
	var err error
	root := 0
	if tr.on {
		var end func()
		root, end = tr.begin(rec)
		defer end()
		v, err = tr.submit(ctx, lc, rec, root)
	} else {
		v, err = lc.Submit(ctx, rec.spec)
	}
	if err != nil {
		return v, err
	}
	if tr.on {
		var end func()
		rec.waitSpan, end = tr.open(rec.traceID, root, "client.watch_preview")
		defer end()
	}
	rec.preview, _, err = lc.WatchPreview(ctx, v.ID)
	rec.ttfp = time.Since(due).Seconds()
	if err != nil || v.State.Terminal() {
		return v, err
	}
	return lc.await(ctx, v.ID, t0)
}

// growing reports a backlog that kept rising to the end of the arrivals:
// the last quarter's mean in-flight count well above the second quarter's.
func growing(backlog []int) bool {
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	avg := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return avg(backlog[3*q:]) > 2*avg(backlog[q:2*q])+2
}

// checkClasses compares the realised classes with the generated ones: a
// repeat must be a cache hit and nothing else may be, and the service must
// have staged exactly the set-up scans plus one dataset per new scan.
func checkClasses(out *outcome, plan mixPlan, recs []*jobRec, dsPaths []string) {
	realised := map[string]int{}
	for _, rec := range recs {
		if rec.err != nil {
			continue
		}
		if hit := rec.view.CacheHit; hit != (rec.class == "repeat") {
			rec.err = fmt.Errorf("generated as %s but cache_hit=%v", rec.class, hit)
			continue
		}
		realised[rec.class]++
	}
	datasets := map[string]bool{}
	for _, p := range dsPaths {
		parts := strings.SplitN(p, "/", 3)
		if len(parts) >= 2 {
			datasets[parts[1]] = true
		}
	}
	want := len(plan.staged)
	for _, j := range plan.jobs {
		if j.class == "newscan" {
			want++
		}
	}
	if len(datasets) != want {
		out.problem("service staged %d datasets, the schedule implies %d", len(datasets), want)
	}
	generated := map[string]int{}
	for _, j := range plan.jobs {
		generated[j.class]++
	}
	var shares []string
	for _, c := range mixClasses {
		if got := float64(generated[c.name]) / float64(len(plan.jobs)); math.Abs(got-c.share) > 0.02 {
			out.problem("generated %s share %.3f is off its target %.2f", c.name, got, c.share)
		}
		shares = append(shares, fmt.Sprintf("%s %d/%d", c.name, realised[c.name], len(recs)))
	}
	out.note("realised classes: %s", strings.Join(shares, ", "))
}
