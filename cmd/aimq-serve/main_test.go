package main

import (
	"bytes"
	"flag"
	"io"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"

	"aimq/internal/datagen"
	"aimq/internal/model"
	"aimq/internal/serve"
	"aimq/internal/service"
	"aimq/internal/webdb"
)

// TestFlagDefaults pins the name and default of every aimq-serve flag (the
// defaults `aimq-serve -h` prints, as flag.Flag.DefValue strings).
func TestFlagDefaults(t *testing.T) {
	want := map[string]string{
		"addr": ":8090", "audit-log": "", "audit-max-age": "0s", "audit-max-bytes": "67108864",
		"audit-sample": "0", "breaker-failures": "5", "breaker-open": "10s", "cache": "1024",
		"cache-snapshot": "", "cache-ttl": "0s", "data": "", "debug-addr": "", "drain": "10s",
		"drift-interval": "0s", "drift-psi-warn": "0.25", "drift-sample": "2000",
		"fail-degrade": "true", "k": "10",
		"key-prune-max-error": "0", "log-json": "false", "max-k": "100",
		"max-queries-per-base": "0", "model": "", "model-info": "false", "model-keep": "2",
		"probe-workers": "1", "prune": "true", "refresh-backoff": "30s",
		"refresh-backoff-max": "15m0s", "refresh-interval": "0s", "refresh-max-sim-drop": "0.1",
		"refresh-max-zero-rise": "0.25", "refresh-on-breach": "true", "refresh-probation": "200",
		"refresh-rollback-zero-rate": "0.6", "refresh-shadow-sample": "64", "resilient": "true",
		"retry-attempts": "3", "retry-base": "50ms", "sample": "0", "seed": "1",
		"slow-query": "500ms", "source": "", "terr": "0.15", "timeout": "30s", "trace-ring": "64",
		"trace-sample": "0", "tsim": "0.5", "version": "false",
	}
	if len(want) != 49 {
		t.Fatalf("table holds %d flags, want 49", len(want))
	}
	cfg := serve.Defaults()
	fs := flag.NewFlagSet("aimq-serve", flag.ContinueOnError)
	bindFlags(fs, &cfg)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	for name, def := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("-%s is missing", name)
		} else if g != def {
			t.Errorf("-%s defaults to %q, want %q", name, g, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("-%s is new", name)
		}
	}
}

// TestModelInfo prints a saved model's identity card without any source,
// and refuses to run with neither a model nor a source.
func TestModelInfo(t *testing.T) {
	m, err := service.BuildModel(webdb.NewLocal(datagen.GenerateCarDB(1000, 1).Rel), service.LearnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := model.Save(path, m.Snap); err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	cfg := serve.Defaults()
	cfg.Model = path
	var out bytes.Buffer
	if err := printModelInfo(&out, cfg, quiet); err != nil {
		t.Fatal(err)
	}
	if want := "fingerprint  " + m.Snap.Fingerprint() + "\n"; !strings.HasPrefix(out.String(), want) {
		t.Errorf("-model-info printed %q, want it to start %q", out.String(), want)
	}
	if !strings.Contains(out.String(), "built        false\n") {
		t.Errorf("a loaded model printed as built: %q", out.String())
	}

	cfg.Model = ""
	if err := printModelInfo(&out, cfg, quiet); err == nil || !strings.Contains(err.Error(), "-model") {
		t.Errorf("-model-info without -model: err = %v, want one naming -model", err)
	}
}
