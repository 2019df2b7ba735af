package serve

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"aimq/internal/audit"
	"aimq/internal/core"
	"aimq/internal/datagen"
	"aimq/internal/relation"
	"aimq/internal/service"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// carCSV writes a small generated CarDB to a temp CSV file.
func carCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cardb.csv")
	if err := relation.SaveCSV(path, datagen.GenerateCarDB(2000, 1).Rel); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBindSetsEveryField sets every flag Bind registers to a value other
// than its default and checks where it lands in the configs each layer is
// built with, including the values two layers share.
func TestBindSetsEveryField(t *testing.T) {
	cases := []struct {
		flag, value string
		got         func(Config) any
		want        any
	}{
		{"data", "d.csv", func(c Config) any { return c.Data }, "d.csv"},
		{"source", "http://src", func(c Config) any { return c.Source }, "http://src"},
		{"model", "m.json", func(c Config) any { return c.Model }, "m.json"},
		{"model", "m.json", func(c Config) any { return c.Lifecycle.ModelPath }, "m.json"},
		{"addr", ":1", func(c Config) any { return c.Addr }, ":1"},
		{"debug-addr", ":2", func(c Config) any { return c.DebugAddr }, ":2"},
		{"k", "7", func(c Config) any { return c.Service.Engine.K }, 7},
		{"k", "7", func(c Config) any { return c.Lifecycle.Engine.K }, 7},
		{"k", "7", func(c Config) any { return c.Audit.Header.Engine.K }, 7},
		{"max-k", "9", func(c Config) any { return c.Service.MaxK }, 9},
		{"tsim", "0.7", func(c Config) any { return c.Service.Engine.Tsim }, 0.7},
		{"tsim", "0.7", func(c Config) any { return c.Lifecycle.Engine.Tsim }, 0.7},
		{"cache", "5", func(c Config) any { return c.Service.CacheSize }, 5},
		{"cache-ttl", "3s", func(c Config) any { return c.Service.CacheTTL }, 3 * time.Second},
		{"timeout", "4s", func(c Config) any { return c.Service.RequestTimeout }, 4 * time.Second},
		{"resilient", "false", func(c Config) any { return c.Resilient }, false},
		{"retry-attempts", "6", func(c Config) any { return c.Resilience.Retry.MaxAttempts }, 6},
		{"retry-base", "7ms", func(c Config) any { return c.Resilience.Retry.BaseDelay }, 7 * time.Millisecond},
		{"breaker-failures", "8", func(c Config) any { return c.Resilience.Breaker.FailureThreshold }, 8},
		{"breaker-open", "9s", func(c Config) any { return c.Resilience.Breaker.OpenTimeout }, 9 * time.Second},
		{"fail-degrade", "false", func(c Config) any { return c.Service.Engine.OnFailure }, core.FailAbort},
		{"fail-degrade", "false", func(c Config) any { return c.Lifecycle.Engine.OnFailure }, core.FailAbort},
		{"fail-degrade", "false", func(c Config) any { return c.Audit.Header.Engine.FailDegrade }, false},
		{"drain", "11s", func(c Config) any { return c.Drain }, 11 * time.Second},
		{"max-queries-per-base", "12", func(c Config) any { return c.Service.Engine.MaxQueriesPerBase }, 12},
		{"max-queries-per-base", "12", func(c Config) any { return c.Lifecycle.Engine.MaxQueriesPerBase }, 12},
		{"sample", "13", func(c Config) any { return c.Learn.SampleSize }, 13},
		{"terr", "0.2", func(c Config) any { return c.Learn.Terr }, 0.2},
		{"seed", "14", func(c Config) any { return c.Learn.Seed }, int64(14)},
		{"seed", "14", func(c Config) any { return c.Drift.Seed }, int64(14)},
		{"probe-workers", "3", func(c Config) any { return c.Learn.Workers }, 3},
		{"probe-workers", "3", func(c Config) any { return c.Drift.ProbeWorkers }, 3},
		{"prune", "false", func(c Config) any { return c.Service.Engine.DisablePruning }, true},
		{"prune", "false", func(c Config) any { return c.Audit.Header.Engine.DisablePruning }, true},
		{"key-prune-max-error", "0.05", func(c Config) any { return c.Service.Engine.KeyPruneMaxError }, 0.05},
		{"key-prune-max-error", "0.05", func(c Config) any { return c.Lifecycle.Engine.KeyPruneMaxError }, 0.05},
		{"cache-snapshot", "s.json", func(c Config) any { return c.CacheSnapshot }, "s.json"},
		{"trace-ring", "15", func(c Config) any { return c.Service.TraceRing }, 15},
		{"trace-sample", "16", func(c Config) any { return c.Service.TraceSample }, 16},
		{"slow-query", "19ms", func(c Config) any { return c.Service.SlowQuery }, 19 * time.Millisecond},
		{"audit-log", "a.jsonl", func(c Config) any { return c.Audit.Path }, "a.jsonl"},
		{"audit-log", "a.jsonl", func(c Config) any { return c.Lifecycle.AuditPath }, "a.jsonl"},
		{"audit-sample", "20", func(c Config) any { return c.Audit.SampleRate }, 20},
		{"audit-max-bytes", "21", func(c Config) any { return c.Audit.MaxBytes }, int64(21)},
		{"audit-max-age", "22s", func(c Config) any { return c.Audit.MaxAge }, 22 * time.Second},
		{"drift-interval", "23s", func(c Config) any { return c.Drift.Interval }, 23 * time.Second},
		{"drift-sample", "24", func(c Config) any { return c.Drift.SampleLimit }, 24},
		{"drift-psi-warn", "0.3", func(c Config) any { return c.Drift.PSIWarn }, 0.3},
		{"refresh-interval", "25s", func(c Config) any { return c.Lifecycle.Interval }, 25 * time.Second},
		{"refresh-on-breach", "false", func(c Config) any { return c.RefreshOnBreach }, false},
		{"refresh-backoff", "26s", func(c Config) any { return c.Lifecycle.Retry.BaseDelay }, 26 * time.Second},
		{"refresh-backoff-max", "27m", func(c Config) any { return c.Lifecycle.Retry.MaxDelay }, 27 * time.Minute},
		{"refresh-shadow-sample", "28", func(c Config) any { return c.Lifecycle.ShadowSample }, 28},
		{"refresh-max-zero-rise", "0.29", func(c Config) any { return c.Lifecycle.MaxZeroRise }, 0.29},
		{"refresh-max-sim-drop", "0.3", func(c Config) any { return c.Lifecycle.MaxSimDrop }, 0.3},
		{"model-keep", "31", func(c Config) any { return c.Lifecycle.Keep }, 31},
		{"refresh-probation", "32", func(c Config) any { return c.Lifecycle.ProbationWindow }, 32},
		{"refresh-rollback-zero-rate", "0.33", func(c Config) any { return c.Lifecycle.ProbationZeroRate }, 0.33},
	}

	c := Defaults()
	fs := flag.NewFlagSet("aimq-serve", flag.ContinueOnError)
	c.Bind(fs)
	var args []string
	seen := map[string]bool{}
	for _, tc := range cases {
		if f := fs.Lookup(tc.flag); f == nil {
			t.Fatalf("-%s is not bound", tc.flag)
		} else if f.DefValue == tc.value {
			t.Fatalf("-%s=%s is its default; pick another value", tc.flag, tc.value)
		}
		if !seen[tc.flag] {
			seen[tc.flag] = true
			args = append(args, "-"+tc.flag+"="+tc.value)
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !seen[f.Name] {
			t.Errorf("-%s has no case", f.Name)
		}
	})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	layers := c.resolve(quiet)
	for _, tc := range cases {
		if got := tc.got(layers); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-%s=%s: got %v (%T), want %v (%T)", tc.flag, tc.value, got, got, tc.want, tc.want)
		}
	}
	if layers.Service.Logger != quiet || layers.Lifecycle.Logger != quiet {
		t.Errorf("the logger does not reach the service and the refresh controller")
	}
}

// TestStackAnswersThroughRouter builds a stack over a CSV and drives its
// handler over HTTP.
func TestStackAnswersThroughRouter(t *testing.T) {
	c := Defaults()
	c.Data = carCSV(t)
	s, err := Build(c, quiet)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Service)
	defer srv.Close()

	var answer struct {
		K       int  `json:"k"`
		Cached  bool `json:"cached"`
		Answers []struct {
			Values []string `json:"values"`
			Sim    float64  `json:"sim"`
		} `json:"answers"`
	}
	get(t, srv.URL+"/answer?q="+url.QueryEscape("Model like Camry, Price like 10000")+"&k=3", &answer)
	if answer.K != 3 || len(answer.Answers) != 3 || answer.Cached {
		t.Fatalf("answer: %+v", answer)
	}
	for _, a := range answer.Answers {
		if a.Sim < c.Service.Engine.Tsim || len(a.Values) != 7 {
			t.Errorf("answer row %+v: below Tsim or not a CarDB tuple", a)
		}
	}

	var health map[string]any
	get(t, srv.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Errorf("healthz: %v", health)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics: %s %q", resp.Status, resp.Header.Get("Content-Type"))
	}
	for _, series := range []string{"aimq_service_requests_total", "aimq_source_breaker_state"} {
		if !strings.Contains(string(body), series) {
			t.Errorf("metrics lack %s", series)
		}
	}
}

// TestRunSavesSnapshotAndAuditOnShutdown answers one query through a
// running stack, cancels it, and checks what shutdown leaves on disk: the
// cache snapshot holds the entry, and a second stack warmed from it serves
// that query from cache on its first request.
func TestRunSavesSnapshotAndAuditOnShutdown(t *testing.T) {
	c := Defaults()
	c.Data = carCSV(t)
	dir := t.TempDir()
	c.CacheSnapshot = filepath.Join(dir, "snap.json")
	c.Audit.Path = filepath.Join(dir, "audit.jsonl")
	const q = "Model like Camry, Price like 10000"

	first := run(t, c, func(base string) {
		var out struct{ Cached bool }
		get(t, base+"/answer?q="+url.QueryEscape(q), &out)
		if out.Cached {
			t.Errorf("first stack's first answer was cached")
		}
	})

	snap, err := service.LoadCacheSnapshot(c.CacheSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	want := service.CacheSnapshotEntry{Query: q, K: c.Service.Engine.K, Tsim: c.Service.Engine.Tsim}
	if len(snap.Entries) != 1 || snap.Entries[0] != want {
		t.Errorf("snapshot entries %+v, want [%+v]", snap.Entries, want)
	}
	auditLog, err := audit.ReadLogFile(c.Audit.Path)
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := first.ModelInfo(); auditLog.Header == nil || auditLog.Header.ModelFingerprint != info.Fingerprint || !auditLog.Header.Engine.FailDegrade {
		t.Errorf("audit header %+v", auditLog.Header)
	}
	if ev := auditLog.Events; len(ev) != 1 || ev[0].Query != q || ev[0].Key != q+"|k=10|tsim=0.5" {
		t.Errorf("audit events %+v, want one for %q", ev, q)
	}

	c.Audit.Path = ""
	run(t, c, func(base string) {
		var out struct{ Cached bool }
		get(t, base+"/answer?q="+url.QueryEscape(q), &out)
		if !out.Cached {
			t.Errorf("second stack did not warm the snapshot's entry")
		}
	})
}

// run builds c on a free loopback port, waits until it answers /healthz,
// calls drive with its base URL, then cancels it and waits for Run.
func run(t *testing.T, c Config, drive func(base string)) *service.Service {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Addr = ln.Addr().String()
	ln.Close()
	s, err := Build(c, quiet)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	base := "http://" + c.Addr
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		} else if time.Now().After(deadline) {
			cancel()
			t.Fatalf("stack never listened: %v", err)
		}
	}
	drive(base)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	return s.Service
}

// get fetches target and decodes its JSON body into out.
func get(t *testing.T, target string, out any) {
	t.Helper()
	resp, err := http.Get(target)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET %s: %s %q", target, resp.Status, resp.Header.Get("Content-Type"))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", target, err)
	}
}
