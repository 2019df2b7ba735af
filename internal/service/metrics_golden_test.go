package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"aimq/internal/audit"
	"aimq/internal/drift"
	"aimq/internal/webdb"
)

// TestMetricsScrapeGolden scrapes a service with every telemetry source
// attached — resilience middleware over the in-process engine, a model
// identity card, a drift monitor that has ticked, an audit writer and a
// refresh reporter — after one computed, one cached and one explained
// answer, and compares the exposition against a checked-in golden. Every
// HELP and TYPE line is kept verbatim; each sample keeps its name and label
// set, while its value and the goversion label are masked. Regenerate with:
// go test ./internal/service -run TestMetricsScrapeGolden -update
func TestMetricsScrapeGolden(t *testing.T) {
	rel := testDB(600, 3)
	src := webdb.NewResilient(webdb.NewLocal(rel), webdb.ResilientConfig{})
	m, err := BuildModel(webdb.NewLocal(rel), LearnConfig{Pivot: "Make"})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	var sink bytes.Buffer // written by the audit goroutine; never read here
	aw, err := audit.NewWriter(audit.Config{Sink: &sink})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	defer aw.Close()

	svc := newService(t, rel, src, Config{SlowQuery: -1, Audit: aw})
	svc.SetModelInfo(ModelInfo{
		Fingerprint: "fp-golden", LearnedAtUnix: 1700000000,
		SampleSize: 600, Pivot: "Make", Built: true,
	})
	mon := drift.NewMonitor(src, m.Snap.Drift, drift.MonitorConfig{SampleLimit: 500, Seed: 3})
	svc.AttachDriftMonitor(mon)
	if _, err := mon.Tick(context.Background()); err != nil {
		t.Fatalf("drift tick: %v", err)
	}
	svc.AttachLifecycle(&fakeRefresher{st: RefreshStats{State: "idle", Attempts: 1, Promoted: 1}})

	for _, target := range []string{
		"/answer?q=Model+like+Camry&k=3",              // computed
		"/answer?q=Model+like+Camry&k=3",              // cached
		"/answer?q=Price+like+12000&k=2&explain=true", // explained
	} {
		if code, out := do(t, svc, "GET", target, ""); code != 200 {
			t.Fatalf("GET %s: status %d: %v", target, code, out)
		}
	}

	w := httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	body := w.Body.String()
	if err := parseExposition(body); err != nil {
		t.Fatalf("scrape rejected: %v\n%s", err, body)
	}
	got := []byte(maskScrape(body))

	golden := filepath.Join("testdata", "metrics.golden.txt")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scrape drifted from %s (run with -update after intentional changes)\ngot:\n%s", golden, got)
	}
}

var goversionLabel = regexp.MustCompile(`goversion="[^"]*"`)

// maskScrape keeps HELP and TYPE lines as they are and cuts every sample
// line to its name and label set, with the goversion label masked.
func maskScrape(body string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
			line = goversionLabel.ReplaceAllString(line, `goversion="*"`)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
