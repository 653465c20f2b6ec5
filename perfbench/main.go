// Command perfbench is the repository benchmark. It starts the service
// stack in process (service.NewManager + service.NewServer with the
// daemon's default options, and internal/router for the routed workload),
// drives one seeded workload through the public SDK (pkg/client), checks
// every output against independently computed references, and prints the
// result as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload recon --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	recon        closed loop, one client, full-quality 64³ jobs, one server
//	progressive  closed loop, one client, quality=progressive jobs streamed
//	             with client.StreamProgressive through a router over two
//	             one-worker backends
//	service-mix  open loop at a fixed offered rate: cache repeats, new
//	             windows on staged scans, new scans and previews
//
// With --trace 0 it reports the end-to-end metrics, all measured from the
// client side with no tracing: setup_s, job_s_p50, job_s_p90, gups,
// ttfp_s_p50, ttfs_s_p50 and mem_peak_mib. A client that only polls
// (recon, service-mix) can read its first slice, and on recon its first
// image of any tier, when the job turns terminal, so there ttfs and ttfp
// are the terminal times of the jobs that produce them: on service-mix,
// ttfs over the full-quality jobs, cache hits included. Preview jobs on
// service-mix follow the event stream (client.WatchPreview), and ttfp is
// when their preview reaches the client. With --trace 1 the workload alternates untraced and
// traced rounds, records a span around every call the benchmark makes into
// a layer, merges in the program-reported stage spans, and reports the
// per-layer metrics instead (layers.go).
//
// The process exits 1 when any job fails or any output is wrong, and 2 on a
// usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

var workloads = map[string]func(options) (*outcome, error){
	"recon":       runRecon,
	"progressive": runProgressive,
	"service-mix": runMix,
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: recon, progressive or service-mix")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	opt.trace = traceFlag == 1
	run, ok := workloads[opt.workload]
	if !ok || opt.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload recon|progressive|service-mix, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}

	env := environment(opt)
	out, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.problem("metric %s has no samples", name)
			out.metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	for _, line := range out.report {
		fmt.Println("#", line)
	}
	for _, p := range out.problems {
		fmt.Println("# FAIL:", p)
	}
	blob, _ := json.Marshal(env)
	fmt.Println("# env", string(blob))
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if res.Attempted < 1 {
		res.Correct = false
		res.Attempted = 1
		res.Failed = 1
	}
	blob, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(blob))
	if !res.Correct {
		os.Exit(1)
	}
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	problems          []string // anything that makes the run incorrect
	metrics           map[string]metric
	report            []string // human-readable lines printed before the result
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// reportMetrics adds one line per metric, sorted by name.
func (o *outcome) reportMetrics() {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		o.note("%-34s %14.6g %s", n, m.Value, m.Unit)
	}
}

// environment tags a result with where and how it was measured.
func environment(opt options) map[string]any {
	return map[string]any{
		"commit":      sourceRevision(),
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu":         cpuModel(),
		"seed":        opt.seed,
		"workload":    opt.workload,
		"mix_rate_hz": mixRate,
		"trace":       opt.trace,
	}
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
