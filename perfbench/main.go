// Command perfbench is the repository's benchmark. It builds nothing
// itself: run.sh builds it together with the ipcd and ipcmodel
// binaries, then runs one workload.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper|serve-cold --seed N --seconds S --trace 0|1
//
// With --trace 0 it launches the real binaries and reports the
// end-to-end metrics; with --trace 1 it drives the modules in process,
// records a span around each layer call, writes the spans as a Chrome
// trace under .bench_build/traces, and reports the per-layer metrics.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// defines every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	binDir   string
	root     string
}

// connections is the number of keep-alive connections the serve
// workloads use: one per CPU, at most two, so runs on the same host
// offer the same concurrency.
func connections() int { return min(runtime.NumCPU(), 2) }

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run's counts and metrics, and narrates the run
// on standard output as it goes. Informational figures are printed
// with the metrics but left out of the result line.
type result struct {
	attempted, failed int
	names             []string
	metrics           map[string]metricVal
	infos             []string
}

func newResult() *result { return &result{metrics: map[string]metricVal{}} }

func (r *result) metric(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metricVal{Value: v, Unit: unit}
}

// info records a figure that is printed by name and unit but is not a
// benchmark metric.
func (r *result) info(name string, v float64, unit string) {
	r.infos = append(r.infos, fmt.Sprintf("%-34s %14.6f %s (not gated)", name, v, unit))
}

func (r *result) logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// finish prints every metric by name and unit, then the result line.
func (r *result) finish(correct bool) error {
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-34s %14d %s\n", "attempted", r.attempted, "count")
	fmt.Printf("%-34s %14.6f %s\n", "fail_share", share, "share")
	for _, line := range r.infos {
		fmt.Println(line)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		fmt.Printf("%-34s %14.6f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "paper or serve-cold")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "seconds to measure")
	traceFlag := flag.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
	flag.StringVar(&o.binDir, "bin", ".bench_build/bin", "directory holding the ipcd and ipcmodel binaries")
	flag.Parse()
	o.trace = *traceFlag == 1
	var err error
	if o.root, err = os.Getwd(); err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%t go=%s nproc=%d GOMAXPROCS=%d conns=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), connections())
	var res *result
	switch {
	case o.workload == "paper" && !o.trace:
		res, err = runPaper(ctx, o)
	case o.workload == "paper":
		res, err = tracePaper(ctx, o)
	case o.workload == "serve-cold" && !o.trace:
		res, err = runServe(ctx, o, coldSpec)
	case o.workload == "serve-cold":
		res, err = traceServe(ctx, o, coldSpec)
	default:
		err = fmt.Errorf("unknown workload %q (want paper or serve-cold)", o.workload)
	}
	if err != nil {
		if res != nil {
			_ = res.finish(false)
		}
		fatal(err)
	}
	if err := res.finish(true); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
