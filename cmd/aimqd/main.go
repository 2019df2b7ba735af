// Command aimqd serves a CSV-backed relation as an autonomous Web database:
// a form-style boolean query interface over HTTP, exactly the access model
// the paper assumes for remote sources.
//
// Usage:
//
//	aimqd -data cardb.csv -addr :8080
//
// Endpoints:
//
//	GET /schema                         — attribute names and types
//	GET /query?Make=Ford&Price.lt=9000  — boolean conjunctive query
//	GET /debug/traces                   — retained probe traces (-trace-ring > 0)
//	GET /debug/traces/export            — the same, as Perfetto trace-event JSON
//
// Query the served database with the aimq CLI:
//
//	aimq -url http://127.0.0.1:8080 -q "Make like Ford"
//
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aimq/internal/obs"
	"aimq/internal/relation"
	"aimq/internal/version"
	"aimq/internal/webdb"
)

func main() {
	data := flag.String("data", "", "CSV file to serve")
	addr := flag.String("addr", ":8080", "listen address")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "keep-alive idle connection timeout")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
	traceRing := flag.Int("trace-ring", 64, "query traces kept by /debug/traces (recent and slowest each; <=0 disables tracing)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("aimqd %s (%s)\n", version.Version, version.GoVersion())
		return
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	slog.SetDefault(slog.New(handler))

	if err := run(*data, *addr, *idleTimeout, *drain, *traceRing); err != nil {
		fmt.Fprintln(os.Stderr, "aimqd:", err)
		os.Exit(1)
	}
}

func run(data, addr string, idleTimeout, drain time.Duration, traceRing int) error {
	if data == "" {
		return fmt.Errorf("need -data")
	}
	rel, err := relation.LoadCSV(data)
	if err != nil {
		return err
	}
	src := &webdb.ProbeCounter{Src: webdb.NewLocal(rel)}
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler(src, traceRing),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		slog.Info("serving relation", "version", version.Version,
			"tuples", rel.Size(), "schema", rel.Schema().String(), "addr", addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down: draining in-flight requests", "budget", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	slog.Info("stopped", "source_queries", src.Queries())
	return nil
}

// handler is aimqd's HTTP surface over src: the form interface, logged per
// request. With traceRing > 0 every /query runs under a recorder that joins
// the caller's traceparent (a mediator's relaxation trace continues here),
// and the finished traces — engine EXPLAIN included — are retained for
// /debug/traces and its Perfetto export.
func handler(src webdb.Source, traceRing int) http.Handler {
	server := webdb.NewServer(src)
	if traceRing <= 0 {
		return logRequests(server)
	}
	ring := obs.NewRing(traceRing)
	server.EnableTracing(ring)
	mux := http.NewServeMux()
	mux.Handle("/", server)
	obs.HandleTraces(mux, ring, nil)
	return logRequests(mux)
}

// logRequests emits one structured line per request, tagged with a request
// ID that is echoed back as X-Request-ID (the caller's own ID is kept when
// it forwards a usable one, see obs.RequestID, so a mediator's trace and the
// source's log correlate). When tracing is on, the line also carries the
// trace ID the query joined — the same ID the mediator's own trace shows for
// its source_http span.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(obs.RequestIDHeader, obs.RequestID(r.Header.Get(obs.RequestIDHeader)))
		start := time.Now()
		next.ServeHTTP(w, r)
		// A traced /query sets the ID its trace keeps; log that one.
		id := w.Header().Get(obs.RequestIDHeader)
		attrs := []any{"request_id", id, "method", r.Method,
			"url", r.URL.String(), "elapsed", time.Since(start).Round(time.Microsecond)}
		if tid := w.Header().Get("X-Trace-ID"); tid != "" {
			attrs = append(attrs, "trace_id", tid)
		}
		slog.Info("request", attrs...)
	})
}
