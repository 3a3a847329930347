// Command perfbench is the repository benchmark: it runs one named
// workload per invocation against the simulator, the design-space
// sweep and the serving stack, checks every op's output, and prints one
// JSON result line.
//
//	perfbench --workload sim-zoo --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the timed phase runs untraced and the result carries
// the end-to-end metrics. With --trace 1 the run splits --seconds into
// an untraced half and a traced half; the traced half records spans in
// memory around every call into the layers, derives the per-layer
// metrics from them, writes the spans as trace_event JSON and reports
// the tracing overhead against the untraced half.
//
// Human-readable detail goes to stderr; the last line of stdout is the
// result object. The exit code is 0 only when every op succeeded and
// every output check passed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A --trace 0 run builds the workload from scratch in setupBatches
// batches. A batch repeats the setup until its setups add up to
// setupBatchSeconds, and its figure is their mean; setup_s is the
// median of the batch figures. A single setup takes milliseconds, and
// on a shared host the same setup reads up to twice as slow for
// stretches of 0.1 s or so; a batch averages over such stretches, and
// the median keeps one slow batch (the first, with the process's cold
// start) out of the figure. Each setup starts after a forced
// collection, so the garbage of the one before (a closed workload) is
// not collected inside it at a random point.
const (
	setupBatches      = 9
	setupBatchSeconds = 0.2
)

// workload is one benchmark scenario, built by a setupFunc. run drives
// the pre-materialised plan until the phase deadline; verify checks the
// outputs the phase recorded (recomputing reference results outside the
// timed window); close releases everything setup started.
type workload interface {
	run(ctx context.Context, ph *phase) error
	verify(ctx context.Context, ph *phase) error
	close() error
}

// A workload is built in two steps. Its prepareFunc generates the
// seeded plan from env: the seed, and --seconds, which sizes plans that
// are consumed rather than cycled. That is the benchmark's own work,
// done once per run before anything is timed. The setupFunc it returns
// builds the workload on that plan: networks, reference results,
// engine, listener, journal and the warm-up pass. setup_s times only
// the setupFunc. tr, when non-nil, records spans around the layer
// calls setup makes.
type (
	prepareFunc func(e *env) setupFunc
	setupFunc   func(ctx context.Context, tr *tracer) (workload, error)
)

// env is what every workload's prepareFunc receives.
type env struct {
	root    string // repository root holding the module sources
	work    string // scratch directory for journals and trace files
	seed    int64
	seconds float64
	procs   int // callers / connections / workers: runtime.NumCPU()
}

var workloads = map[string]prepareFunc{
	"sim-zoo":       prepareSimZoo,
	"sweep-dse":     prepareSweep,
	"serve-hot":     prepareServeHot,
	"serve-durable": prepareServeDurable,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	seed := fs.Int64("seed", 1, "plan seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traced := fs.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	root := fs.String("root", ".", "repository root (holds go.mod and internal/)")
	work := fs.String("work", ".bench_build", "scratch directory for journals and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	prepare, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	if err := checkRoot(*root); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	e := &env{root: *root, work: *work, seed: *seed, seconds: *seconds, procs: runtime.NumCPU()}
	ctx := context.Background()
	setup := prepare(e)
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(ctx, *name, setup, e, stderr)
	} else {
		res, err = runUntraced(ctx, setup, e, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res.print(stderr)
	line, err := json.Marshal(res.wire())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// checkRoot refuses to run outside a checkout of the module: the
// benchmark reads the simulator's golden file from it.
func checkRoot(root string) error {
	for _, p := range []string{"go.mod", goldenPath} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("%s is not a shortcutmining checkout: %w", root, err)
		}
	}
	return nil
}

// runUntraced builds the workload in setup batches (timing each build,
// closing all but the last), then runs the timed phase with tracing off
// and reports the end-to-end metrics.
func runUntraced(ctx context.Context, setup setupFunc, e *env, stderr io.Writer) (*result, error) {
	var w workload
	setups := make([]float64, 0, setupBatches)
	n := 0
	for b := 0; b < setupBatches; b++ {
		var sum float64
		k := 0
		for ; sum < setupBatchSeconds; k++ {
			if w != nil {
				if err := w.close(); err != nil {
					return nil, err
				}
			}
			runtime.GC()
			start := time.Now()
			var err error
			if w, err = setup(ctx, nil); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			sum += time.Since(start).Seconds()
		}
		setups = append(setups, sum/float64(k))
		n += k
	}
	probeStart := probeMops()
	ph := newPhase(durationOf(e.seconds), nil)
	runErr := w.run(ctx, ph)
	ph.finish()
	if runErr == nil {
		runErr = w.verify(ctx, ph)
	}
	closeErr := w.close()
	if err := errors.Join(runErr, closeErr); err != nil {
		return nil, err
	}
	probeEnd := probeMops()
	fmt.Fprintf(stderr, "perfbench: %d setups, batch means %.4f s, host probe %.1f / %.1f Mops/s\n",
		n, setups, probeStart, probeEnd)
	res := ph.endToEnd()
	res.set("setup_s", median(setups), "s")
	fmt.Fprintf(stderr, "perfbench: window throughput %s\n", spread(ph.windowRates()))
	fmt.Fprintf(stderr, "perfbench: block latency p50 %s\n", spread(ph.blockQuantiles(0.50)))
	fmt.Fprintf(stderr, "perfbench: block latency p99 %s\n", spread(ph.blockQuantiles(0.99)))
	return res, nil
}

// runTraced builds the workload once with the tracer attached, runs an
// untraced half and a traced half of --seconds, and reports the
// per-layer metrics plus the tracing overhead.
func runTraced(ctx context.Context, name string, setup setupFunc, e *env, stderr io.Writer) (*result, error) {
	tr := newTracer()
	w, err := setup(ctx, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	half := durationOf(e.seconds / 2)
	probeStart := probeMops()
	plain := newPhase(half, nil)
	runErr := w.run(ctx, plain)
	plain.finish()
	traced := newPhase(half, tr)
	if runErr == nil {
		runErr = w.run(ctx, traced)
		traced.finish()
	}
	if runErr == nil {
		runErr = w.verify(ctx, plain)
	}
	if runErr == nil {
		runErr = w.verify(ctx, traced)
	}
	closeErr := w.close()
	if err := errors.Join(runErr, closeErr); err != nil {
		return nil, err
	}
	probeEnd := probeMops()
	path := filepath.Join(e.work, fmt.Sprintf("perfbench-trace-%s.json", name))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: %d spans (%d not kept) written to %s\n", tr.total(), tr.dropped(), path)
	res := perLayer(tr, plain, traced)
	res.set("host.probe_mops", (probeStart+probeEnd)/2, "Mops/s")
	return res, nil
}

// spread summarises per-window figures for the stderr report.
func spread(v []float64) string {
	return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g (%d)",
		quantile(v, 0), quantile(v, 0.25), median(v), quantile(v, 0.75), quantile(v, 1), len(v))
}

func durationOf(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}
