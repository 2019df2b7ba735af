// Command aimq-serve is the AIMQ answering daemon: it loads (or learns and
// persists) the mined model once, then serves imprecise queries over HTTP
// with an LRU answer cache, single-flight deduplication, per-request
// deadlines, Prometheus metrics, end-to-end query tracing and graceful
// shutdown.
//
// Over a local CSV:
//
//	aimq-serve -data cardb.csv -model cardb.model.json -addr :8090
//
// Over a remote autonomous source (an aimqd instance), probing it to learn:
//
//	aimq-serve -source http://127.0.0.1:8080 -model cardb.model.json
//
// Then:
//
//	curl 'http://127.0.0.1:8090/answer?q=Model+like+Camry,+Price+like+10000&k=5'
//	curl 'http://127.0.0.1:8090/answer?q=Model+like+Camry&explain=true'
//	curl 'http://127.0.0.1:8090/debug/traces'
//	curl 'http://127.0.0.1:8090/metrics'
//	curl 'http://127.0.0.1:8090/healthz'
//
// With -debug-addr a second, private listener serves the full diagnostics
// surface (pprof, expvar, traces, the learning profile):
//
//	aimq-serve -data cardb.csv -debug-addr 127.0.0.1:8091
//	curl 'http://127.0.0.1:8091/debug/'
//
// The source is wrapped in retry + circuit-breaker middleware by default
// (tune with -retry-attempts, -retry-base, -breaker-failures, -breaker-open;
// disable with -resilient=false). With -cache-ttl set, expired cache entries
// are served marked "stale" while the breaker is open — see
// docs/ROBUSTNESS.md.
//
// Logs are structured (log/slog); every request carries a generated ID that
// is echoed back as X-Request-ID and stamped on its trace.
//
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aimq/internal/model"
	"aimq/internal/serve"
	"aimq/internal/service"
	"aimq/internal/version"
)

func main() {
	cfg := serve.Defaults()
	showVersion, logJSON, modelInfo := bindFlags(flag.CommandLine, &cfg)
	flag.Parse()

	if *showVersion {
		fmt.Printf("aimq-serve %s (%s)\n", version.Version, version.GoVersion())
		return
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	if err := run(cfg, *modelInfo, logger); err != nil {
		fmt.Fprintln(os.Stderr, "aimq-serve:", err)
		os.Exit(1)
	}
}

// bindFlags registers every aimq-serve flag on fs: the stack's settings
// into cfg, and the three that act before any stack is built.
func bindFlags(fs *flag.FlagSet, cfg *serve.Config) (showVersion, logJSON, modelInfo *bool) {
	cfg.Bind(fs)
	return fs.Bool("version", false, "print version and exit"),
		fs.Bool("log-json", false, "emit logs as JSON instead of text"),
		fs.Bool("model-info", false, "print the model's fingerprint, learn timestamp and age, then exit (loads or learns the model first)")
}

func run(cfg serve.Config, modelInfo bool, logger *slog.Logger) error {
	logger.Info("aimq-serve starting", "version", version.Version, "go", version.GoVersion())
	if modelInfo {
		return printModelInfo(os.Stdout, cfg, logger)
	}
	s, err := serve.Build(cfg, logger)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return s.Run(ctx)
}

// printModelInfo writes the -model-info identity card. A saved snapshot
// needs no source at all; with -data or -source the model is loaded or
// learned first, as at startup.
func printModelInfo(w io.Writer, c serve.Config, logger *slog.Logger) error {
	var info service.ModelInfo
	switch {
	case c.Data != "" || c.Source != "":
		var err error
		if _, _, info, err = serve.Open(c, logger); err != nil {
			return err
		}
	case c.Model == "":
		return fmt.Errorf("-model-info needs -model (or -data/-source to learn one)")
	default:
		snap, err := model.Load(c.Model)
		if err != nil {
			return err
		}
		info = (&service.Model{Snap: snap}).Info()
	}
	fmt.Fprintf(w, "fingerprint  %s\n", info.Fingerprint)
	if !info.LearnedAt().IsZero() {
		fmt.Fprintf(w, "learned_at   %s\n", info.LearnedAt().UTC().Format(time.RFC3339))
		fmt.Fprintf(w, "age          %s\n", time.Since(info.LearnedAt()).Round(time.Second))
	}
	if info.SampleSize != 0 {
		fmt.Fprintf(w, "sample_size  %d\n", info.SampleSize)
	}
	if info.Pivot != "" {
		fmt.Fprintf(w, "pivot        %s\n", info.Pivot)
	}
	fmt.Fprintf(w, "built        %t\n", info.Built)
	return nil
}
