// Command scm-cluster runs the distributed serving tier: one
// multi-tenant scenario sharded across N simulated accelerator chips
// joined by a contended interconnect cost model (ring, mesh, or
// all-to-all links with configurable bandwidth and hop latency).
//
// Offline mode executes a chips>1 scenario and reports per-request
// latencies, per-chip utilization, and the link-level interconnect
// ledger:
//
//	scm-cluster -spec "seed=7;chips=4;topo=mesh;place=affinity;stream=resnet34:n=4,gap=2000000;stream=squeezenet:n=6,gap=500000,poisson"
//	scm-cluster -spec "..." -json            # full Result as JSON
//	scm-cluster -spec "..." -requests        # per-request timeline CSV
//	scm-cluster -spec "..." -links           # per-link occupancy/backpressure CSV
//	scm-cluster -spec "..." -trace out.json  # Perfetto timeline with link-occupancy spans
//	scm-cluster -spec "..." -metrics         # Prometheus text page
//
// Serve mode runs the sharded HTTP front: N in-process serve engines
// behind one listener, the result cache sharded by content hash with
// request forwarding between instances, job IDs namespaced per shard:
//
//	scm-cluster -serve :8080 -shards 3
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"shortcutmining"

	"shortcutmining/internal/cluster"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/serve"
	"shortcutmining/internal/trace"
)

// runCluster executes the sharded scenario with the CLI's optional
// registry and trace recorder attached (the facade wrappers carry
// neither).
func runCluster(cfg shortcutmining.Config, spec *shortcutmining.SchedSpec,
	reg *metrics.Registry, rec *trace.Buffer) (*cluster.Result, error) {
	if rec != nil {
		return cluster.Run(cfg, spec, reg, rec)
	}
	return cluster.Run(cfg, spec, reg, nil)
}

func main() {
	var (
		specStr   = flag.String("spec", "", "chips>1 scheduling scenario (grammar plus chips=/topo=/place=/linkgbps=/hoplat= clauses)")
		config    = flag.String("config", "", "load the platform from a JSON config file")
		asJSON    = flag.Bool("json", false, "emit the full Result as JSON")
		asCSV     = flag.Bool("csv", false, "emit the per-stream QoS table as CSV")
		requests  = flag.Bool("requests", false, "emit the per-request timeline as CSV")
		links     = flag.Bool("links", false, "emit the per-link interconnect ledger as CSV")
		traceOut  = flag.String("trace", "", "write a Perfetto trace (link-occupancy spans) to this file")
		withMet   = flag.Bool("metrics", false, "print cluster metrics as a Prometheus text page")
		serveAddr = flag.String("serve", "", "run the sharded HTTP front on this address instead of an offline run")
		shards    = flag.Int("shards", 3, "with -serve: number of in-process serve engines")
		workers   = flag.Int("workers", 0, "with -serve: per-shard worker-pool size (0 = GOMAXPROCS)")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "with -serve: graceful-drain bound")
	)
	flag.Parse()

	if *serveAddr != "" {
		if err := runServe(*serveAddr, *shards, *workers, *drainTO); err != nil {
			fatal(err)
		}
		return
	}
	if *specStr == "" {
		fmt.Fprintln(os.Stderr, "scm-cluster: -spec or -serve is required; example:")
		fmt.Fprintln(os.Stderr, `  scm-cluster -spec "seed=7;chips=4;topo=mesh;place=affinity;stream=resnet34:n=4,gap=2000000"`)
		os.Exit(2)
	}
	if err := runOffline(*specStr, *config, *asJSON, *asCSV, *requests, *links, *traceOut, *withMet); err != nil {
		fatal(err)
	}
}

func runOffline(specStr, config string, asJSON, asCSV, requests, links bool, traceOut string, withMet bool) error {
	spec, err := shortcutmining.ParseSchedSpec(specStr)
	if err != nil {
		return err
	}
	cfg, err := shortcutmining.LoadConfig(config)
	if err != nil {
		return err
	}
	var reg *metrics.Registry
	if withMet {
		reg = metrics.New()
	}
	var rec *trace.Buffer
	if traceOut != "" {
		rec = &trace.Buffer{}
	}
	res, err := runCluster(cfg, spec, reg, rec)
	if err != nil {
		return err
	}
	if err := res.Reconcile(); err != nil {
		return fmt.Errorf("ledgers do not reconcile: %w", err)
	}

	switch {
	case asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	case requests:
		fmt.Println("stream,seq,arrival,start,finish,latency,queue_wait,service_cycles,crossings,interchip_bytes,shortcut_handoff_bytes,backpressure_cycles")
		for _, r := range res.Requests {
			fmt.Printf("%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				r.Stream, r.Seq, r.Arrival, r.Start, r.Finish,
				r.Latency, r.QueueWait, r.ServiceCycles, r.Crossings,
				r.InterchipBytes, r.ShortcutHandoffBytes, r.BackpressureCycles)
		}
	case links:
		fmt.Println("link,transfers,bytes,busy_cycles,backpressure_cycles")
		for _, ln := range res.Noc.Links {
			fmt.Printf("%s,%d,%d,%d,%d\n", ln.Name, ln.Transfers, ln.Bytes, ln.BusyCycles, ln.BackpressureCycles)
		}
	case asCSV:
		fmt.Print(res.Table().CSV())
	default:
		fmt.Print(res.Table().Markdown())
		fmt.Println()
		fmt.Print(res.ChipTable().Markdown())
		fmt.Printf("\n%d chips, %s topology, %s placement: makespan %.2f Mcycles, "+
			"interchip %.2f MB, noc backpressure %.2f Mcycles\n",
			res.Chips, res.Topology, res.Placement,
			float64(res.MakespanCycles)/1e6, float64(res.InterchipBytes)/1e6,
			float64(res.Noc.BackpressureCycles)/1e6)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err := trace.WritePerfetto(w, rec.Events, cfg.PE.ClockMHz); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scm-cluster: wrote %d trace events to %s\n", len(rec.Events), traceOut)
	}
	if withMet {
		w := bufio.NewWriter(os.Stdout)
		if err := reg.WriteProm(w); err != nil {
			return err
		}
		return w.Flush()
	}
	return nil
}

func runServe(addr string, shards, workers int, drainTO time.Duration) error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	sh, err := serve.NewShards(shards, serve.Options{Workers: workers, Logger: logger})
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           serve.NewShardedHandler(sh),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("scm-cluster serving", "addr", addr, "shards", shards)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "timeout", drainTO.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTO)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown", "error", err)
	}
	if err := sh.Drain(ctx); err != nil {
		logger.Error("drain forced cancellations", "error", err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scm-cluster:", err)
	os.Exit(1)
}
