package aimq

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"aimq/internal/datagen"
	"aimq/internal/webdb"
)

// TestIntegrationFullStackOverHTTP drives the complete pipeline — probing,
// mining, similarity estimation, relaxation, feedback, persistence — with
// every byte crossing an HTTP boundary, the way a real deployment against
// an autonomous web database would run.
func TestIntegrationFullStackOverHTTP(t *testing.T) {
	gen := datagen.GenerateCarDB(6000, 31)
	counted := &webdb.ProbeCounter{Src: webdb.NewLocal(gen.Rel)}
	srv := httptest.NewServer(webdb.NewServer(counted))
	defer srv.Close()

	db, err := Connect(srv.URL, srv.Client(),
		WithSeed(32), WithPivot("Make"), WithSampleSize(3000), WithTargetRelevant(40))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Learn(); err != nil {
		t.Fatalf("Learn over HTTP: %v", err)
	}
	if counted.Queries() == 0 {
		t.Fatalf("no probing traffic observed")
	}

	ans, err := db.Ask("Model like Camry, Price like 9000")
	if err != nil {
		t.Fatalf("Ask over HTTP: %v", err)
	}
	if len(ans.Rows) == 0 {
		t.Fatalf("no answers over HTTP")
	}
	if ans.Rows[0].Values[1] != "Camry" {
		t.Errorf("top answer = %v", ans.Rows[0].Values)
	}

	// Feedback and persistence work in the remote session too.
	if err := db.Feedback("Model like Camry, Price like 9000", ans.Rows[0].Values, true); err != nil {
		t.Errorf("Feedback: %v", err)
	}
	path := t.TempDir() + "/remote-model.json"
	if err := db.SaveModel(path); err != nil {
		t.Errorf("SaveModel: %v", err)
	}
	reloaded, err := Connect(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	if err := reloaded.LoadModel(path); err != nil {
		t.Fatalf("LoadModel into a second remote session: %v", err)
	}
	if _, err := reloaded.Ask("Make like Ford"); err != nil {
		t.Errorf("Ask on reloaded remote session: %v", err)
	}
}

// TestIntegrationFlakySource proves the pipeline degrades gracefully when
// the autonomous source fails intermittently.
func TestIntegrationFlakySource(t *testing.T) {
	gen := datagen.GenerateCarDB(3000, 33)
	flaky := webdb.NewChaos(webdb.NewLocal(gen.Rel), webdb.ChaosConfig{Seed: 34, FailProb: 0.10})
	db := OpenSource(flaky,
		WithSample(gen.Rel), // learn offline; exercise failures online
		WithMaxSourceFailures(500),
	)
	if err := db.Learn(); err != nil {
		t.Fatal(err)
	}
	ans, err := db.Ask("Model like Accord, Price like 8000")
	if err != nil {
		t.Fatalf("Ask against flaky source: %v", err)
	}
	if len(ans.Rows) == 0 {
		t.Errorf("flaky source produced no answers")
	}
	// Zero tolerance surfaces the failure instead.
	strict := OpenSource(webdb.NewChaos(webdb.NewLocal(gen.Rel), webdb.ChaosConfig{FailEvery: 2}),
		WithSample(gen.Rel))
	if err := strict.Learn(); err != nil {
		t.Fatal(err)
	}
	if _, err := strict.Ask("Model like Accord"); err == nil {
		t.Errorf("strict session swallowed source failures")
	}
}

// TestIntegrationConcurrentAsk exercises the documented guarantee that Ask
// is safe to call concurrently after Learn.
func TestIntegrationConcurrentAsk(t *testing.T) {
	db, _ := learnedCarDB(t, 4000)
	queries := []string{
		"Model like Camry, Price like 9000",
		"Make like Ford, Mileage between 40000 and 90000",
		"Model like Civic",
		"Make like Kia, Price like 4000",
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*4)
	for w := 0; w < 4; w++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				ans, err := db.Ask(q)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", q, err)
					return
				}
				if len(ans.Rows) == 0 {
					errs <- fmt.Errorf("%s: no rows", q)
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
