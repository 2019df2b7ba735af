package service

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"aimq/internal/core"
	"aimq/internal/datagen"
	"aimq/internal/drift"
	"aimq/internal/webdb"
)

// TestDriftEndToEnd is the acceptance demo for the drift telemetry: learn a
// model over the generated car database, mutate the live source's
// distribution (prices inflate 3x, three major makes vanish), and verify a
// monitor tick raises the aimq_model_drift_* families above threshold while
// /debug/drift names the shifted attributes.
func TestDriftEndToEnd(t *testing.T) {
	db := datagen.GenerateCarDB(3000, 7)
	swap := webdb.NewSwap(webdb.NewLocal(db.Rel))

	m, err := BuildModel(swap, LearnConfig{Pivot: "Make"})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	if m.Snap.Drift == nil {
		t.Fatal("snapshot carries no drift baseline")
	}

	svc := New(swap, m.Est, &core.Guided{Ord: m.Ord}, Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	svc.SetModelInfo(m.Info())
	mon := drift.NewMonitor(swap, m.Snap.Drift, drift.MonitorConfig{
		SampleLimit: 2000, PSIWarn: 0.25, Seed: 3,
	})
	svc.AttachDriftMonitor(mon)

	// Tick 1: source unchanged, the fresh sample must look like the baseline.
	rep, err := mon.Tick(context.Background())
	if err != nil {
		t.Fatalf("healthy tick: %v", err)
	}
	if rep.MaxPSI >= 0.25 {
		t.Fatalf("source unchanged but max PSI %.3f (attr %s) breaches threshold",
			rep.MaxPSI, rep.MaxPSIAttr)
	}

	// The source drifts: market-wide price inflation plus three makes leaving.
	shifted := datagen.Perturb(db.Rel, datagen.Perturbation{
		ScaleNumeric: map[string]float64{"Price": 3},
		DropCategory: map[string][]string{"Make": {"Toyota", "Honda", "Ford"}},
		Seed:         11,
	})
	swap.Set(webdb.NewLocal(shifted))

	// Tick 2: the monitor must flag the shift.
	rep, err = mon.Tick(context.Background())
	if err != nil {
		t.Fatalf("post-shift tick: %v", err)
	}
	if rep.MaxPSI < 0.25 {
		t.Fatalf("source shifted but max PSI only %.3f", rep.MaxPSI)
	}
	names := rep.Shifted(0.25)
	if !contains(names, "Price") {
		t.Errorf("shifted attrs %v do not name Price after 3x inflation", names)
	}

	// /debug/drift names the shifted attributes and counts the breach.
	code, out := do(t, svc, "GET", "/debug/drift", "")
	if code != 200 {
		t.Fatalf("/debug/drift status %d: %v", code, out)
	}
	if got := out["breaches"].(float64); got != 1 {
		t.Errorf("/debug/drift breaches = %v, want 1", got)
	}
	shiftedOut, _ := out["shifted"].([]any)
	var shiftedNames []string
	for _, v := range shiftedOut {
		shiftedNames = append(shiftedNames, v.(string))
	}
	if !contains(shiftedNames, "Price") {
		t.Errorf("/debug/drift shifted = %v, want Price named", shiftedNames)
	}

	// /metrics exposes the drift families, and the scrape stays strictly
	// parseable with the model telemetry block present.
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	body := w.Body.String()
	if err := parseExposition(body); err != nil {
		t.Fatalf("scrape with drift telemetry rejected: %v\n%s", err, body)
	}
	for _, substr := range []string{
		"aimq_model_drift_ticks_total 2",
		"aimq_model_drift_breaches_total 1",
		"aimq_model_drift_max_psi ",
		`aimq_model_drift_psi{attr="Price"}`,
		`aimq_model_version{version="` + m.Snap.Fingerprint() + `"`,
		"aimq_model_age_seconds ",
		"aimq_model_sample_size ",
	} {
		if !strings.Contains(body, substr) {
			t.Errorf("scrape lacks %q", substr)
		}
	}

	// The breach left a synthetic trace in the ring, visible on the same
	// timeline as answer traces.
	w = httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	if !strings.Contains(w.Body.String(), "[drift]") {
		t.Errorf("/debug/traces has no synthetic drift trace:\n%s", w.Body.String())
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
