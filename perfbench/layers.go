package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ifdk/internal/core"
	"ifdk/internal/ct/backproject"
	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/preview"
	"ifdk/internal/ct/projector"
	"ifdk/internal/engine"
	"ifdk/internal/hpc/mpi"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// ladderLayers are the layers whose self time the traced run reports as a
// share of the workload's job_s_p50, top of the stack first.
var ladderLayers = []string{"client", "router", "service", "core", "filter", "mpi", "backproject", "pfs", "fdk"}

// layerMetrics turns a traced run into the per-layer metrics: the program-
// reported stage timings and counters of the traced rounds, the span
// ladder, and timed calls into each compute layer at the workload's shape.
// Metrics a workload has no traffic for (no router, no stream) read 0.
func layerMetrics(opt options, out *outcome, refs *references, rounds []*round, tr *tracer) error {
	var traced, plain []*jobRec
	var retries int64
	var bs batchStats
	var proxy []float64
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r.recs...)
			retries += r.retries
			bs.sweeps += r.batch.sweeps
			bs.batchSum += r.batch.batchSum
			bs.batchCount += r.batch.batchCount
			proxy = append(proxy, r.proxy...)
		} else {
			plain = append(plain, r.recs...)
		}
	}
	if len(traced) == 0 {
		return fmt.Errorf("traced run recorded no jobs")
	}
	ok := func(r *jobRec) bool { return r.err == nil }
	computed := func(r *jobRec) bool {
		return r.err == nil && !r.view.CacheHit && r.spec.Quality != api.QualityPreview
	}
	hits := func(r *jobRec) bool { return r.err == nil && r.view.CacheHit }
	med0 := func(xs []float64) float64 { // 0 where the workload has no samples
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}

	// Program-reported: the service's View.Stages, View.WaitSec, trace spans
	// and /metrics counters of the traced rounds.
	out.set("core.compute_s", "s", med0(collect(traced, computed, func(r *jobRec) float64 { return r.view.Stages.Compute })))
	out.set("core.epilogue_s", "s", med0(collect(traced, computed, func(r *jobRec) float64 { return r.view.Stages.Reduce + r.view.Stages.Store })))
	out.set("core.delta", "ratio", med0(collect(traced, computed, func(r *jobRec) float64 {
		s := r.view.Stages
		if s.Compute <= 0 {
			return 0
		}
		return (s.Filter + s.AllGather + s.Backproject) / s.Compute
	})))
	waits := collect(traced, ok, func(r *jobRec) float64 { return r.view.WaitSec })
	out.set("service.queue_wait_s_p50", "s", med0(waits))
	out.set("service.queue_wait_s_p90", "s", quantileOr0(waits, 0.9))
	// staging is paid by the first job of a dataset only: report its mean
	// per computed job, which is what it adds to the latency distribution
	if st := collect(traced, computed, func(r *jobRec) float64 { return r.stageSec }); len(st) > 0 {
		out.set("service.stage_dataset_s", "s", mean(st))
	} else {
		out.set("service.stage_dataset_s", "s", 0)
	}
	hitSec := collect(traced, hits, func(r *jobRec) float64 { return r.sec })
	out.set("service.cache_hit_frac", "ratio", float64(len(hitSec))/float64(len(traced)))
	out.set("service.cache_hit_s_p50", "s", med0(hitSec))
	out.set("service.overhead_s", "s", med0(collect(traced, computed, func(r *jobRec) float64 {
		return r.sec - (r.view.WaitSec + r.stageSec + r.view.Stages.Total + r.verifySec)
	})))
	out.set("service.stream_lag_s", "s", med0(collect(traced, func(r *jobRec) bool { return ok(r) && r.stream != nil }, func(r *jobRec) float64 { return r.lagSec })))
	batchMean := 0.0
	if bs.batchCount > 0 {
		batchMean = bs.batchSum / bs.batchCount
	}
	out.set("batcher.batch_size_mean", "count", batchMean)
	out.set("batcher.sweeps", "count", bs.sweeps)
	out.set("router.proxy_s_p50", "s", med0(proxy))
	out.set("router.relay_lag_s", "s", med0(collect(traced, func(r *jobRec) bool { return ok(r) && r.stream != nil }, func(r *jobRec) float64 { return r.relaySec })))
	out.set("client.retries", "count", float64(retries))
	out.set("client.wire_bytes_per_job", "B", med0(collect(traced, func(r *jobRec) bool { return ok(r) && r.stream != nil }, func(r *jobRec) float64 { return float64(r.stream.WireBytes) })))
	if _, set := out.metrics["loadgen.lag_s_p90"]; !set {
		out.set("loadgen.lag_s_p90", "s", 0) // closed loops have no schedule
	}

	// The ladder: each layer's self time per traced job as a share of the
	// untraced job_s_p50, and the tracing overhead.
	plainP50 := median(collect(plain, ok, func(r *jobRec) float64 { return r.sec }))
	tracedP50 := median(collect(traced, ok, func(r *jobRec) float64 { return r.sec }))
	out.set("trace.overhead_s", "s", tracedP50-plainP50)
	tr.mu.Lock()
	self := selfTimes(tr.spans)
	program := 0
	for _, sp := range tr.spans {
		if sp.program {
			program++
		}
	}
	out.note("spans recorded: %d, of which %d program-reported (GET /v1/jobs/{id}/trace)", len(tr.spans), program)
	tr.mu.Unlock()
	out.note("ladder: layer self time per job as a share of job_s_p50 = %.4g s (untraced); traced p50 %.4g s", plainP50, tracedP50)
	out.note("  (filter, mpi and backproject overlap inside compute, so their shares add up past 100%%)")
	for _, layer := range ladderLayers {
		var per []float64
		for _, rec := range traced {
			if rec.traceID != "" {
				per = append(per, self[rec.traceID][layer])
			}
		}
		share := mean(per) / plainP50
		out.set(layer+".self_share", "ratio", share)
		out.note("  %-12s %8.4f s  %6.1f%%", layer, mean(per), 100*share)
	}

	// Timed calls into each compute layer at the workload's shape.
	spec := traced[0].spec
	for _, r := range traced {
		if computed(r) {
			spec = r.spec
			break
		}
	}
	if err := replayLayers(out, refs, spec); err != nil {
		return err
	}
	out.set("engine.in_use_bytes_end", "B", float64(engine.InUseBytes()))
	out.reportMetrics()
	return nil
}

func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// timeIt returns the median wall time of reps calls of fn, or the first
// error.
func timeIt(reps int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts), nil
}

// replayLayers times the public entry points of projector, filter,
// backproject, mpi, pfs, preview, fdk and core on one job's shape. Counts
// and bytes labelled computed come from array sizes, not from counters.
func replayLayers(out *outcome, refs *references, spec api.Spec) error {
	ctx := context.Background()
	sc := scanOf(spec)
	g := sc.geometry()
	win, err := parseWindow(spec.Window)
	if err != nil {
		return err
	}
	ph, err := sc.object()
	if err != nil {
		return err
	}
	const reps = 3
	synth, err := timeIt(1, func() error { _, err := projector.AnalyticAllCtx(ctx, ph, g, 0); return err })
	if err != nil {
		return err
	}
	out.set("projector.synth_s_per_dataset", "s", synth)
	proj, err := refs.projections(sc)
	if err != nil {
		return err
	}

	// filter: the memoized Filterer applied row by row, and the same filter
	// seen from inside a direct core.RunContext replay.
	flt, err := filter.Cached(g, win)
	if err != nil {
		return err
	}
	filtered := make([]*volume.Image, len(proj))
	for i, p := range proj {
		filtered[i] = p.Clone()
	}
	fsec, err := timeIt(reps, func() error {
		for i, p := range proj {
			copy(filtered[i].Data, p.Data)
			if err := flt.ApplyInto(filtered[i], filtered[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("filter.us_per_proj", "us", fsec/float64(len(proj))*1e6)

	store := pfs.New(pfs.Config{})
	const prefix = "replay/in"
	if err := core.StageProjectionsCtx(ctx, store, prefix, proj); err != nil {
		return err
	}
	rf := &timedFilter{f: flt}
	res, err := core.RunContext(ctx, core.Config{
		R: spec.R, C: spec.C, Geometry: g, Window: win, InputPrefix: prefix, OutputPrefix: "replay/out",
		NewRowFilter: func(geometry.Params, filter.Window) (core.RowFilter, error) { return rf, nil },
	}, store)
	if err != nil {
		return err
	}
	out.set("filter.pipeline_us_per_proj", "us", rf.perCall()*1e6)
	out.set("core.replay_s", "s", res.Max.Total.Seconds())
	out.set("mpi.bytes_per_job", "B", float64(res.BytesSent))

	// backproject: one rank's slab pair over its column's projections.
	h := g.Nz / (2 * spec.R)
	colProj := filtered[:g.Np/spec.C]
	task := backproject.Task{Mats: geometry.ProjectionMatrices(g)[:len(colProj)], Proj: colProj}
	vol := volume.New(g.Nx, g.Ny, 2*h, volume.KMajor)
	bsec, err := timeIt(reps, func() error {
		return backproject.ProposedSlabPair(task, vol, backproject.Options{}, g.Nz, 0, h)
	})
	if err != nil {
		return err
	}
	upd := float64(g.Nx) * float64(g.Ny) * float64(2*h) * float64(len(colProj))
	out.set("backproject.gups", "GUPS", upd/bsec/1e9)
	out.set("backproject.updates", "count", upd)
	out.set("backproject.bytes_computed", "B", float64(vol.Bytes())+float64(len(colProj)*g.Nu*g.Nv*4))

	// mpi: the pipeline's collectives at its block sizes.
	ag, red, err := replayCollectives(ctx, spec.R, spec.C, g.Np, g.Nu*g.Nv, g.Nx*g.Ny*2*h)
	if err != nil {
		return err
	}
	out.set("mpi.allgather_us_per_round", "us", ag*1e6)
	out.set("mpi.reduce_s", "s", red)

	// pfs: projection reads and output-slice writes on a fresh store.
	disk := pfs.New(pfs.Config{})
	if err := core.StageProjectionsCtx(ctx, disk, prefix, proj); err != nil {
		return err
	}
	img := volume.NewImage(g.Nu, g.Nv)
	rsec, err := timeIt(reps, func() error {
		for s := range proj {
			if _, err := disk.ReadProjectionInto(img, prefix, s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("pfs.read_us_per_proj", "us", rsec/float64(len(proj))*1e6)
	full, err := refs.volume(spec, false)
	if err != nil {
		return err
	}
	wsec, err := timeIt(reps, func() error { _, err := disk.WriteVolumeSlices("replay/slices", full); return err })
	if err != nil {
		return err
	}
	out.set("pfs.store_s", "s", wsec)
	st := disk.Stats()
	out.set("pfs.bytes_read", "B", float64(st.BytesRead))
	out.set("pfs.bytes_written", "B", float64(st.BytesWritten))

	// preview and fdk at this shape.
	plan, err := preview.PlanFor(g, 0)
	if err != nil {
		return err
	}
	read := func(dst *volume.Image, s int) error { copy(dst.Data, proj[s].Data); return nil }
	psec, err := timeIt(reps, func() error {
		_, _, err := plan.Reconstruct(ctx, read, preview.Options{Window: win})
		return err
	})
	if err != nil {
		return err
	}
	out.set("preview.build_s", "s", psec)
	dsec, err := timeIt(reps, func() error { _, err := fdk.Reconstruct(g, proj, fdk.Config{Window: win}); return err })
	if err != nil {
		return err
	}
	out.set("fdk.reconstruct_s", "s", dsec)
	return nil
}

// timedFilter is the benchmark's core.RowFilter: the memoized Filterer,
// timed per call. Every rank shares it.
type timedFilter struct {
	f     *filter.Filterer
	mu    sync.Mutex
	total time.Duration
	calls int
}

func (t *timedFilter) Filter(_ context.Context, img *volume.Image) (int, error) {
	start := time.Now()
	err := t.f.ApplyInto(img, img)
	d := time.Since(start)
	t.mu.Lock()
	t.total += d
	t.calls++
	t.mu.Unlock()
	return 1, err
}

func (t *timedFilter) Close() {}

func (t *timedFilter) perCall() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.calls == 0 {
		return 0
	}
	return t.total.Seconds() / float64(t.calls)
}

// replayCollectives runs the pipeline's two collectives on an R×C world:
// np/(R·C) AllGather rounds of one projection per rank in each column
// group, then one Reduce of a slab pair in each row group. It returns rank
// 0's median seconds per AllGather round and its Reduce seconds.
func replayCollectives(ctx context.Context, r, c, np, block, slab int) (float64, float64, error) {
	var mu sync.Mutex
	var rounds []float64
	var reduce float64
	err := mpi.RunContext(ctx, r*c, func(comm *mpi.Comm) error {
		row, col := core.RankRow(comm.Rank(), r), core.RankCol(comm.Rank(), r)
		colComm, err := comm.Split(col, row)
		if err != nil {
			return err
		}
		rowComm, err := comm.Split(row, col)
		if err != nil {
			return err
		}
		data := make([]float32, block)
		var mine []float64
		for k := 0; k < np/(r*c); k++ {
			t := time.Now()
			bufs, err := colComm.AllGatherBufs(data)
			if err != nil {
				return err
			}
			mine = append(mine, time.Since(t).Seconds())
			for _, b := range bufs {
				if b != nil {
					b.Release()
				}
			}
		}
		vol := make([]float32, slab)
		t := time.Now()
		out, err := rowComm.ReduceBufs(0, vol, mpi.OpSum)
		if err != nil {
			return err
		}
		d := time.Since(t).Seconds()
		if out != nil {
			out.Release()
		}
		if comm.Rank() == 0 {
			mu.Lock()
			rounds, reduce = mine, d
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	sort.Float64s(rounds)
	return median(rounds), reduce, nil
}
