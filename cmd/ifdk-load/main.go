// Command ifdk-load replays a mixed medical/industrial reconstruction
// workload against an ifdkd server (or an ifdk-router fronting a fleet —
// the generator cannot tell the difference) and reports service-level
// performance: throughput, submit→done latency percentiles, backpressure
// retries, cache hits and verification outcomes. All traffic flows through
// the pkg/client SDK over the versioned pkg/api contract — no hand-rolled
// HTTP. With no -addr it spins up an in-process server first, making the
// full service path a one-command benchmark alongside the Fig. 7 / Table 4
// harnesses:
//
//	ifdk-load -jobs 24 -clients 6 -workers 4
//	ifdk-load -addr http://localhost:8080 -jobs 50
//
// A fraction of the jobs are exact duplicates (exercising the result
// cache), a fraction request serial-reference verification, and one job is
// cancelled mid-flight to check teardown latency. The process exits
// non-zero if any job fails, any verified job exceeds the paper's 1e-5
// relative-RMSE bound, or the cancelled job does not settle promptly.
//
// With -mixed the generator runs the multi-client fairness scenario
// instead: one client submits only low-priority jobs while the other
// clients flood high-priority work, and a bulk client interleaves large
// volumes that saturate the cost budget (-max-queued-sec). Success requires
// every low-priority job to complete — priority aging at work — while cheap
// jobs keep being admitted around the budget-hogging large ones; the report
// prints per-class wait percentiles and the admission counters.
//
//	ifdk-load -mixed -jobs 36 -clients 6 -workers 2 -max-queued-sec 3
//
// With -stream the generator runs the streaming-delivery scenario instead:
// it submits one verified job, consumes /events (SSE, via client.Watch) and
// /stream (chunked multipart, via client.Stream) concurrently, and measures
// time-to-first-slice against time-to-full-volume (the stream's terminal
// part). Adding -gzip negotiates per-part gzip slice encoding and reports
// the bytes saved. The process exits non-zero unless the first slice and at
// least one progress event arrived while the job was still running, every
// slice streamed exactly once, and first-slice latency beat full-volume
// latency by a wide margin.
//
//	ifdk-load -stream -nx 64 -workers 2
//	ifdk-load -stream -gzip
//
// With -preview the generator runs the progressive coarse-to-fine
// scenario instead: it submits one quality=progressive job, consumes its
// stream via client.StreamProgressive, and measures time-to-first-preview
// (the coarse tier's first part) against time-to-full-volume. The process
// exits non-zero unless every preview part precedes every full-resolution
// part, the reassembled preview matches GET /preview bit for bit, and the
// first preview slice beats the full volume by a wide margin.
//
//	ifdk-load -preview -nx 64 -workers 2
//
// With -trace the generator additionally fetches one sampled job's span
// tree (GET /v1/jobs/{id}/trace) after the run and prints it as an
// indented waterfall — queue wait, dataset staging, per-round filter and
// AllGather, back-projection, reduce and store, with the router's proxy
// hop on top when pointed at an ifdk-router.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ifdk/internal/service"
	"ifdk/pkg/api"
	"ifdk/pkg/client"
	"ifdk/pkg/volume"
)

type result struct {
	id      string
	view    api.View
	latency time.Duration
	err     error
}

type loadConfig struct {
	addr         string
	jobs         int
	clients      int
	nx           int
	dupEvery     int
	verifyEvery  int
	workers      int
	queueCap     int
	timeout      time.Duration
	mixed        bool
	stream       bool
	preview      bool
	gzip         bool
	trace        bool
	maxQueuedSec float64
	quotaRPS     float64
	aging        time.Duration
	bigNX        int
}

func main() {
	var lc loadConfig
	flag.StringVar(&lc.addr, "addr", "", "server base URL (empty = start an in-process server)")
	flag.IntVar(&lc.jobs, "jobs", 24, "number of jobs to submit")
	flag.IntVar(&lc.clients, "clients", 6, "concurrent submitting clients")
	flag.IntVar(&lc.nx, "nx", 16, "volume voxels per side for every job")
	flag.IntVar(&lc.dupEvery, "dup-every", 3, "every n-th job repeats an earlier spec (0 = never)")
	flag.IntVar(&lc.verifyEvery, "verify-every", 4, "every n-th job verifies against the serial reference (0 = never)")
	flag.IntVar(&lc.workers, "workers", 4, "worker pool size (in-process server only)")
	flag.IntVar(&lc.queueCap, "queue", 8, "queue capacity (in-process server only)")
	flag.DurationVar(&lc.timeout, "timeout", 5*time.Minute, "overall deadline")
	flag.BoolVar(&lc.mixed, "mixed", false, "run the multi-client mixed-priority fairness scenario")
	flag.BoolVar(&lc.stream, "stream", false, "run the streaming time-to-first-slice scenario")
	flag.BoolVar(&lc.preview, "preview", false, "run the progressive time-to-first-preview scenario")
	flag.BoolVar(&lc.gzip, "gzip", false, "negotiate per-part gzip slice encoding in -stream and report bytes saved")
	flag.BoolVar(&lc.trace, "trace", false, "fetch and print one sampled job's span-tree waterfall after the run")
	flag.Float64Var(&lc.maxQueuedSec, "max-queued-sec", 0.5, "queued-work cost budget for -mixed (in-process server only)")
	flag.Float64Var(&lc.quotaRPS, "quota-rps", 0, "per-client quota for the in-process server (0 = off)")
	flag.DurationVar(&lc.aging, "aging", 150*time.Millisecond, "priority aging step for -mixed (in-process server only)")
	flag.IntVar(&lc.bigNX, "big-nx", 64, "volume side of the budget-saturating bulk jobs in -mixed")
	flag.Parse()

	if err := run(lc); err != nil {
		fmt.Fprintln(os.Stderr, "ifdk-load:", err)
		os.Exit(1)
	}
}

// specFor builds the i-th job of the mixed workload: alternating medical
// (Shepp–Logan head), industrial (machined block) and calibration (sphere)
// scans on varying grids, with periodic exact duplicates to exercise the
// result cache.
func specFor(i, nx, dupEvery, verifyEvery int) api.Spec {
	if dupEvery > 0 && i > 0 && i%dupEvery == 0 {
		// Repeat an earlier job's spec exactly; keep dupEvery so a
		// reference that is itself a dup slot resolves through the chain.
		return specFor(i/dupEvery-1, nx, dupEvery, verifyEvery)
	}
	phantoms := []string{"shepplogan", "industrial", "sphere"}
	grids := [][2]int{{2, 2}, {4, 2}, {2, 4}, {4, 1}}
	g := grids[i%len(grids)]
	s := api.Spec{
		Phantom: phantoms[i%len(phantoms)],
		NX:      nx,
		NP:      2*nx + 8*(i%3)*g[0]*g[1], // vary scan length, keep Np % R·C == 0
		R:       g[0],
		C:       g[1],
	}
	if verifyEvery > 0 && i%verifyEvery == 0 {
		s.Verify = true
	}
	return s
}

// newClient builds the shared SDK client: generous retries against
// backpressure, every retry counted into the report.
func newClient(addr string, lc loadConfig, retries *atomic.Int64) *client.Client {
	opts := []client.Option{client.WithRetry(client.Retry{
		Max:  1 << 20, // the load generator retries saturation until its own deadline
		Base: 25 * time.Millisecond,
		Cap:  250 * time.Millisecond,
		OnRetry: func(code string, _ int, _ time.Duration) {
			if code != "watch_reconnect" {
				retries.Add(1)
			}
		},
	})}
	if lc.gzip {
		opts = append(opts, client.WithGzip())
	}
	return client.New(addr, opts...)
}

func run(lc loadConfig) error {
	ctx, cancel := context.WithTimeout(context.Background(), lc.timeout)
	defer cancel()

	addr := lc.addr
	if addr == "" {
		opt := service.Options{Workers: lc.workers, QueueCap: lc.queueCap, QuotaRPS: lc.quotaRPS}
		if lc.mixed {
			opt.MaxQueuedSec = lc.maxQueuedSec
			opt.Aging = lc.aging
		}
		m := service.NewManager(opt)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: service.NewServer(m)}
		go srv.Serve(ln)
		defer func() {
			shutCtx, c := context.WithTimeout(context.Background(), 30*time.Second)
			defer c()
			srv.Shutdown(shutCtx)
			m.Shutdown(shutCtx)
		}()
		addr = "http://" + ln.Addr().String()
		fmt.Printf("in-process server on %s (%d workers, queue %d", addr, lc.workers, lc.queueCap)
		if lc.mixed {
			fmt.Printf(", budget %gs, aging %v", lc.maxQueuedSec, lc.aging)
		}
		fmt.Println(")")
	}

	var retries atomic.Int64
	c := newClient(addr, lc, &retries)
	if lc.stream {
		return runStream(ctx, c, lc)
	}
	if lc.preview {
		return runPreview(ctx, c, lc)
	}
	mode := "uniform"
	if lc.mixed {
		mode = "mixed-priority fairness"
	}
	fmt.Printf("submitting %d jobs from %d clients (%s, nx=%d, dup every %d, verify every %d)\n",
		lc.jobs, lc.clients, mode, lc.nx, lc.dupEvery, lc.verifyEvery)

	var (
		wg        sync.WaitGroup
		resMu     sync.Mutex
		results   []result
		jobIdx    atomic.Int64
		wallStart = time.Now()
	)
	for cl := 0; cl < lc.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for {
				i := int(jobIdx.Add(1)) - 1
				if i >= lc.jobs {
					return
				}
				spec := specFor(i, lc.nx, lc.dupEvery, lc.verifyEvery)
				if lc.mixed {
					spec.Client = fmt.Sprintf("client-%d", cl)
					// Client 0 is the background tenant: everything it
					// submits is low priority. Everyone else floods high.
					if cl == 0 {
						spec.Priority = "low"
					} else {
						spec.Priority = "high"
						spec.Verify = false // keep the flood cheap
					}
				}
				r := driveJob(ctx, c, spec)
				resMu.Lock()
				results = append(results, r)
				resMu.Unlock()
			}
		}(cl)
	}

	// In mixed mode a bulk client bursts large volumes whose cost estimates
	// saturate the queued-work budget: all but the first shed 503s and
	// retry while the cheap stream keeps flowing around them. The burst
	// waits out a short warmup so the server's cost calibration has seen a
	// few completed runs (estimates start at the raw model scale).
	var bulk []result
	var bulkMu sync.Mutex
	var bulkWG sync.WaitGroup
	if lc.mixed {
		const burst = 3
		for b := 0; b < burst; b++ {
			bulkWG.Add(1)
			go func(b int) {
				defer bulkWG.Done()
				time.Sleep(400*time.Millisecond + time.Duration(b)*10*time.Millisecond)
				spec := api.Spec{
					Phantom:  "industrial",
					NX:       lc.bigNX,
					NP:       2 * lc.bigNX,
					R:        2,
					C:        2,
					Priority: "normal",
					Client:   "bulk",
				}
				r := driveJob(ctx, c, spec)
				bulkMu.Lock()
				bulk = append(bulk, r)
				bulkMu.Unlock()
			}(b)
		}
	}

	// One extra job is cancelled mid-flight to measure teardown latency.
	cancelRes := make(chan error, 1)
	go func() { cancelRes <- cancelProbe(ctx, c, lc.nx) }()

	wg.Wait()
	bulkWG.Wait()
	wall := time.Since(wallStart)
	cancelErr := <-cancelRes

	results = append(results, bulk...)
	return report(ctx, c, lc, results, wall, retries.Load(), cancelErr)
}

// driveJob submits one spec (the SDK retries backpressure under the hood)
// and awaits its terminal state.
func driveJob(ctx context.Context, c *client.Client, spec api.Spec) result {
	start := time.Now()
	var r result
	v, err := c.Submit(ctx, spec)
	if err != nil {
		r.err = err
		return r
	}
	r.id = v.ID
	r.view, err = c.Await(ctx, v.ID, 10*time.Millisecond)
	if err != nil {
		r.err = err
		return r
	}
	r.latency = time.Since(start)
	if r.view.State != api.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", r.id, r.view.State, r.view.Error)
	}
	return r
}

// runStream is the streaming-delivery scenario: one verified job, its
// /events and /stream endpoints consumed live through the SDK, reporting
// time-to-first-slice (the iFDK "instant" metric) against
// time-to-full-volume. Verification is on deliberately — it is the
// service's slowest epilogue, so the gap between "first slice in hand" and
// "job terminal" is the paper's point made measurable.
func runStream(ctx context.Context, c *client.Client, lc loadConfig) error {
	nx := lc.nx
	if nx < 48 {
		// Below this the whole job finishes in ~100ms and fixed overheads
		// (HTTP, scheduling, reduce) swamp the delivery latencies being
		// measured; pass -nx 48 or larger to override the floor.
		fmt.Printf("raising -nx %d to 64 for a measurable run\n", nx)
		nx = 64
	}
	spec := api.Spec{Phantom: "sphere", NX: nx, NP: 4 * nx, R: 2, C: 2,
		Verify: true, Client: "stream"}
	enc := "identity"
	if lc.gzip {
		enc = "gzip per part"
	}
	fmt.Printf("streaming scenario: one verified %s job nx=%d np=%d on a 2x2 grid (%s)\n",
		spec.Phantom, spec.NX, spec.NP, enc)

	// Warm the dataset first: staging is content-addressed and shared, so a
	// cheap unverified warmup job pays the one-time projection synthesis and
	// the measured job then isolates delivery latency — the repeat-scan path
	// a clinic actually sits in. The warmup's wall time is the cold-start
	// cost and is reported alongside.
	warm := spec
	warm.Verify = false
	warmStart := time.Now()
	if w := driveJob(ctx, c, warm); w.err != nil {
		return fmt.Errorf("stream warmup: %w", w.err)
	}
	fmt.Printf("warmup (staging + first reconstruction): %v\n",
		time.Since(warmStart).Round(time.Millisecond))

	start := time.Now()
	v, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("stream submit: %w", err)
	}
	if v.CacheHit {
		return fmt.Errorf("stream scenario: job %s was a cache hit; point -addr at a fresh server", v.ID)
	}

	type sseResult struct {
		rounds, slices       int
		roundBeforeSlice     bool
		firstSlice, terminal time.Duration
		state                api.State
		err                  error
	}
	ssec := make(chan sseResult, 1)
	go func() {
		var r sseResult
		defer func() { ssec <- r }()
		r.state, r.err = c.Watch(ctx, v.ID, func(e api.Event) error {
			switch {
			case e.Type == api.EventRound:
				r.rounds++
				if r.slices == 0 {
					r.roundBeforeSlice = true
				}
			case e.Type == api.EventSlice:
				if r.slices == 0 {
					r.firstSlice = time.Since(start)
				}
				r.slices++
			case e.Type.Terminal():
				r.terminal = time.Since(start)
			}
			return nil
		})
	}()

	type streamResult struct {
		res                  *client.StreamResult
		firstSlice, terminal time.Duration
		err                  error
	}
	strc := make(chan streamResult, 1)
	go func() {
		var r streamResult
		defer func() { strc <- r }()
		first := true
		r.res, r.err = c.Stream(ctx, v.ID, func(z, total int) {
			if first {
				r.firstSlice = time.Since(start)
				first = false
			}
		})
		r.terminal = time.Since(start)
	}()

	sse := <-ssec
	str := <-strc
	if sse.err != nil {
		return fmt.Errorf("events consumer: %w", sse.err)
	}
	if str.err != nil {
		return fmt.Errorf("stream consumer: %w", str.err)
	}

	ttfs := str.firstSlice
	ttfv := str.terminal
	fmt.Printf("\n=== streaming results (job %s) ===\n", v.ID)
	fmt.Printf("time-to-first-slice: %v  (%d/%d slices, %.1f KiB on the wire)\n",
		ttfs.Round(time.Millisecond), str.res.Slices, spec.NX, float64(str.res.WireBytes)/1024)
	fmt.Printf("time-to-full-volume: %v  (terminal state %s, SSE terminal %v)\n",
		ttfv.Round(time.Millisecond), str.res.Final.State, sse.terminal.Round(time.Millisecond))
	fmt.Printf("progress events:     %d rounds, %d slice events (first slice via SSE at %v)\n",
		sse.rounds, sse.slices, sse.firstSlice.Round(time.Millisecond))
	if lc.gzip {
		saved := str.res.RawBytes - str.res.WireBytes
		pct := 0.0
		if str.res.RawBytes > 0 {
			pct = 100 * float64(saved) / float64(str.res.RawBytes)
		}
		fmt.Printf("gzip:                %.1f KiB raw -> %.1f KiB wire, %.1f KiB saved (%.1f%%)\n",
			float64(str.res.RawBytes)/1024, float64(str.res.WireBytes)/1024, float64(saved)/1024, pct)
	}
	fmt.Printf("speedup:             first slice arrived at %.0f%% of full-volume latency\n",
		100*ttfs.Seconds()/ttfv.Seconds())
	if lc.trace {
		printTrace(ctx, c, v.ID)
	}

	switch {
	case str.res.Final.State != api.StateDone:
		return fmt.Errorf("streamed job ended %s: %s", str.res.Final.State, str.res.Final.Error)
	case str.res.Slices != spec.NX:
		return fmt.Errorf("streamed %d slices, want %d", str.res.Slices, spec.NX)
	case sse.rounds < 1 || !sse.roundBeforeSlice:
		return fmt.Errorf("no progress events before the first slice (%d rounds)", sse.rounds)
	case sse.slices != spec.NX:
		return fmt.Errorf("SSE delivered %d slice events, want %d", sse.slices, spec.NX)
	case ttfs.Seconds() >= 0.7*ttfv.Seconds():
		// Even on one core the serial verification epilogue alone puts the
		// first slice near 50% of completion; any parallelism pushes it
		// further down. Above 70% the streaming path is broken.
		return fmt.Errorf("first slice at %v is not a wide margin over full volume at %v (want < 70%%)", ttfs, ttfv)
	case lc.gzip && str.res.WireBytes >= str.res.RawBytes:
		return fmt.Errorf("gzip negotiated but saved nothing (%d wire >= %d raw)", str.res.WireBytes, str.res.RawBytes)
	}
	fmt.Println("streaming scenario OK")
	return nil
}

// runPreview is the progressive coarse-to-fine scenario: one
// quality=progressive job, its stream consumed through
// client.StreamProgressive, reporting time-to-first-preview (the coarse
// tier's first part) against time-to-full-volume. A preview-quality warmup
// under another window pays dataset staging up front, so the measured job
// isolates the latency a viewer actually sees: how long until something
// renders versus how long until every full-resolution voxel is in hand.
func runPreview(ctx context.Context, c *client.Client, lc loadConfig) error {
	nx := lc.nx
	if nx < 64 {
		// A higher floor than -stream: the coarse tier is so cheap that the
		// full-resolution pass must be long enough for the gap to measure.
		fmt.Printf("raising -nx %d to 64 for a measurable run\n", nx)
		nx = 64
	}
	spec := api.Spec{Phantom: "shepplogan", NX: nx, NP: 4 * nx, R: 2, C: 2,
		Quality: api.QualityProgressive, Client: "preview"}
	fmt.Printf("progressive scenario: one %s job nx=%d np=%d on a 2x2 grid, quality=%s\n",
		spec.Phantom, spec.NX, spec.NP, spec.Quality)

	// Warm with a preview of the same scan under another ramp window: it
	// stages the same dataset (content-addressed, shared), but its cache
	// key differs, so the measured job's preview tier is computed rather
	// than served from the cache.
	warm := spec
	warm.Quality = api.QualityPreview
	warm.Window = "hann"
	warmStart := time.Now()
	if w := driveJob(ctx, c, warm); w.err != nil {
		return fmt.Errorf("preview warmup: %w", w.err)
	}
	fmt.Printf("warmup (staging + another window's preview): %v\n",
		time.Since(warmStart).Round(time.Millisecond))

	start := time.Now()
	v, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("progressive submit: %w", err)
	}
	if v.CacheHit {
		return fmt.Errorf("progressive scenario: job %s was a cache hit; point -addr at a fresh server", v.ID)
	}

	var (
		firstPreview, firstFull time.Duration
		previewAfterFull        bool
	)
	res, err := c.StreamProgressive(ctx, v.ID, client.StreamHooks{
		OnPreview: func(z, total, factor int) {
			if firstPreview == 0 {
				firstPreview = time.Since(start)
			}
			if firstFull != 0 {
				previewAfterFull = true
			}
		},
		OnSlice: func(z, total int) {
			if firstFull == 0 {
				firstFull = time.Since(start)
			}
		},
	})
	if err != nil {
		return fmt.Errorf("progressive stream: %w", err)
	}
	ttfv := time.Since(start)

	fmt.Printf("\n=== progressive results (job %s) ===\n", v.ID)
	fmt.Printf("time-to-first-preview: %v  (factor %d, %d coarse slices)\n",
		firstPreview.Round(time.Millisecond), res.PreviewFactor, res.PreviewSlices)
	fmt.Printf("time-to-first-slice:   %v  (full resolution)\n", firstFull.Round(time.Millisecond))
	fmt.Printf("time-to-full-volume:   %v  (terminal state %s, %d slices, %.1f KiB on the wire)\n",
		ttfv.Round(time.Millisecond), res.Final.State, res.Slices, float64(res.WireBytes)/1024)
	if ttfv > 0 {
		fmt.Printf("speedup:               first preview at %.0f%% of full-volume latency\n",
			100*firstPreview.Seconds()/ttfv.Seconds())
	}
	if lc.trace {
		printTrace(ctx, c, v.ID)
	}

	// The /preview endpoint must serve the same coarse volume the stream
	// carried, bit for bit.
	pv, pf, err := c.Preview(ctx, v.ID)
	if err != nil {
		return fmt.Errorf("GET /preview: %w", err)
	}
	diff, err := volume.MaxAbsDiff(pv, res.Preview)
	if err != nil {
		return fmt.Errorf("comparing /preview against streamed tier: %w", err)
	}

	switch {
	case res.Final.State != api.StateDone:
		return fmt.Errorf("progressive job ended %s: %s", res.Final.State, res.Final.Error)
	case res.Preview == nil || res.PreviewSlices == 0 || res.PreviewFactor < 2:
		return fmt.Errorf("no preview tier streamed (factor %d, %d coarse slices)", res.PreviewFactor, res.PreviewSlices)
	case previewAfterFull:
		return errors.New("a preview part arrived after a full-resolution part")
	case res.Slices != nx:
		return fmt.Errorf("streamed %d full-resolution slices, want %d", res.Slices, nx)
	case pf != res.PreviewFactor || diff != 0:
		return fmt.Errorf("/preview disagrees with streamed tier (factor %d vs %d, max diff %g)", pf, res.PreviewFactor, diff)
	case firstPreview.Seconds() >= 0.7*ttfv.Seconds():
		return fmt.Errorf("first preview at %v is not a wide margin over full volume at %v (want < 70%%)", firstPreview, ttfv)
	}
	fmt.Println("progressive scenario OK")
	return nil
}

// printTrace renders one job's span tree as an indented waterfall: each
// line shows the span's offset from the trace's earliest start, its name
// nested under its parent, its duration and owning service. Orphan parents
// (e.g. the SDK's client span, which no server records) start new roots.
// Per-round compute spans collapse past a few examples to keep the output
// readable on long scans.
func printTrace(ctx context.Context, c *client.Client, id string) {
	tr, err := c.Trace(ctx, id)
	if err != nil {
		fmt.Printf("trace %s: %v\n", id, err)
		return
	}
	complete := "complete"
	if !tr.Complete {
		complete = "partial"
	}
	fmt.Printf("\n=== trace %s (job %s, %d spans, %s) ===\n", tr.TraceID, tr.Job, len(tr.Spans), complete)

	known := map[string]bool{}
	for _, s := range tr.Spans {
		known[s.SpanID] = true
	}
	children := map[string][]api.Span{}
	var roots []api.Span
	var base time.Time
	starts := map[string]time.Time{}
	for _, s := range tr.Spans {
		if ts, perr := time.Parse(time.RFC3339Nano, s.Start); perr == nil {
			starts[s.SpanID] = ts
			if base.IsZero() || ts.Before(base) {
				base = ts
			}
		}
		if s.ParentSpanID != "" && known[s.ParentSpanID] {
			children[s.ParentSpanID] = append(children[s.ParentSpanID], s)
		} else {
			roots = append(roots, s)
		}
	}
	order := func(spans []api.Span) {
		sort.Slice(spans, func(i, j int) bool {
			si, sj := starts[spans[i].SpanID], starts[spans[j].SpanID]
			if !si.Equal(sj) {
				return si.Before(sj)
			}
			return spans[i].Name < spans[j].Name
		})
	}
	order(roots)

	const maxRounds = 8
	var walk func(s api.Span, depth int)
	walk = func(s api.Span, depth int) {
		off := 0.0
		if ts, ok := starts[s.SpanID]; ok {
			off = ts.Sub(base).Seconds()
		}
		fmt.Printf("%9.3fs  %s%s  %.3fs  [%s]\n",
			off, strings.Repeat("   ", depth), s.Name, s.DurationSec, s.Service)
		kids := children[s.SpanID]
		order(kids)
		seen := map[string]int{}
		for _, ch := range kids {
			if strings.HasSuffix(ch.Name, ".round") {
				seen[ch.Name]++
				if seen[ch.Name] > maxRounds {
					continue
				}
			}
			walk(ch, depth+1)
		}
		elided := 0
		for _, n := range seen {
			if n > maxRounds {
				elided += n - maxRounds
			}
		}
		if elided > 0 {
			fmt.Printf("%9s  %s… %d more round spans elided\n", "", strings.Repeat("   ", depth+1), elided)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// cancelProbe submits a job and cancels it immediately, checking that the
// service settles it quickly.
func cancelProbe(ctx context.Context, c *client.Client, nx int) error {
	spec := api.Spec{Phantom: "sphere", NX: nx, NP: 8 * nx, R: 2, C: 2, Priority: "low", Client: "probe"}
	v, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("cancel probe submit: %w", err)
	}
	if err := c.Cancel(ctx, v.ID); err != nil {
		return fmt.Errorf("cancel probe delete: %w", err)
	}
	start := time.Now()
	probeCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	final, err := c.Await(probeCtx, v.ID, 5*time.Millisecond)
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) && apiErr.Code == api.CodeNotFound {
			// The probe finished before the cancel arrived, which then
			// deleted the terminal record: also a settled state.
			fmt.Printf("cancel probe: job %s finished before cancel and was deleted\n", v.ID)
			return nil
		}
		return fmt.Errorf("cancel probe: job %s did not settle promptly: %w", v.ID, err)
	}
	fmt.Printf("cancel probe: job %s settled as %s in %v\n", v.ID, final.State, time.Since(start).Round(time.Millisecond))
	return nil
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func report(ctx context.Context, c *client.Client, lc loadConfig, results []result, wall time.Duration, retries int64, cancelErr error) error {
	var lats []time.Duration
	var failures, cacheHits, verified int
	var worstRMSE float64
	byClass := map[string]int{}
	classFails := map[string]int{}
	var maxLowWait float64
	for _, r := range results {
		if r.err != nil {
			failures++
			classFails[r.view.Priority]++
			fmt.Printf("FAIL %s (%s): %v\n", r.id, r.view.Priority, r.err)
			continue
		}
		byClass[r.view.Priority]++
		if r.view.Priority == "low" && r.view.WaitSec > maxLowWait {
			maxLowWait = r.view.WaitSec
		}
		lats = append(lats, r.latency)
		if r.view.CacheHit {
			cacheHits++
		}
		if r.view.Verified {
			verified++
			if r.view.RelRMSE > worstRMSE {
				worstRMSE = r.view.RelRMSE
			}
		}
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })

	fmt.Printf("\n=== service-level results ===\n")
	fmt.Printf("jobs:        %d submitted, %d ok, %d failed\n", len(results), len(lats), failures)
	fmt.Printf("wall time:   %v  (%.2f jobs/s)\n", wall.Round(time.Millisecond), float64(len(lats))/wall.Seconds())
	fmt.Printf("latency:     p50 %v  p90 %v  p99 %v  max %v\n",
		percentile(lats, 0.50).Round(time.Millisecond), percentile(lats, 0.90).Round(time.Millisecond),
		percentile(lats, 0.99).Round(time.Millisecond), percentile(lats, 1.0).Round(time.Millisecond))
	fmt.Printf("backpressure: %d retries after 503/429\n", retries)
	fmt.Printf("cache hits:  %d/%d jobs\n", cacheHits, len(results))
	fmt.Printf("verified:    %d jobs vs serial FDK, worst relative RMSE %.2e (bound 1e-5)\n", verified, worstRMSE)

	if mt, err := c.Metrics(ctx); err == nil {
		fmt.Printf("server:      %d workers, %d runs + %d cache hits, cache %d entries %.1f/%.1f MiB, PFS %.1f MB written\n",
			mt.Workers, mt.Completed, mt.CacheHits, mt.Cache.Entries, float64(mt.Cache.Bytes)/(1<<20),
			float64(mt.Cache.MaxBytes)/(1<<20), mt.PFSWriteMB)
		fmt.Printf("admission:   %d admitted, rejected: %d full, %d cost, %d bytes, %d quota (cost scale %.3g)\n",
			mt.Admission.Admitted, mt.Admission.RejectedFull, mt.Admission.RejectedCost,
			mt.Admission.RejectedBytes, mt.Admission.RejectedQuota, mt.CostScale)
		for _, class := range []string{"high", "normal", "low"} {
			if ws, ok := mt.WaitSec[class]; ok {
				fmt.Printf("wait[%s]:  p50 %.3fs  p90 %.3fs  p99 %.3fs  (%d jobs)\n",
					class, ws.P50, ws.P90, ws.P99, ws.Count)
			}
		}
	}

	if lc.trace {
		// Sample one real run (cache hits have trivial two-span traces) and
		// show where its time went, end to end.
		for _, r := range results {
			if r.err == nil && !r.view.CacheHit {
				printTrace(ctx, c, r.id)
				break
			}
		}
	}

	if lc.mixed {
		fmt.Printf("fairness:    %d low / %d normal / %d high completed; worst low-priority wait %.2fs\n",
			byClass["low"], byClass["normal"], byClass["high"], maxLowWait)
		if classFails["low"] > 0 {
			return fmt.Errorf("starvation: %d low-priority jobs did not complete", classFails["low"])
		}
	}
	if cancelErr != nil {
		return cancelErr
	}
	if failures > 0 {
		return fmt.Errorf("%d jobs failed", failures)
	}
	if verified > 0 && worstRMSE > 1e-5 {
		return fmt.Errorf("verification exceeded bound: %.2e > 1e-5", worstRMSE)
	}
	return nil
}
