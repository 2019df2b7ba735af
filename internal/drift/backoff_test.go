package drift

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/webdb"
)

// flakySource fails until healed, then serves the wrapped source.
type flakySource struct {
	src    webdb.Source
	broken bool
}

func (f *flakySource) Schema() *relation.Schema { return f.src.Schema() }
func (f *flakySource) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	if f.broken {
		return nil, errors.New("probe refused")
	}
	return f.src.QueryContext(ctx, q, limit)
}

func TestMonitorBacksOffOnProbeFailures(t *testing.T) {
	base := genRel(2000, 1, 1, "")
	profile := BuildProfile(base, []int{0})
	profile.Pivot = "Model"

	src := &flakySource{src: webdb.NewLocal(genRel(2000, 11, 1, "")), broken: true}
	mon := NewMonitor(src, profile, MonitorConfig{
		SampleLimit: 1500,
		Interval:    time.Minute,
	})

	if got := mon.NextInterval(); got != time.Minute {
		t.Fatalf("healthy NextInterval = %v, want 1m", got)
	}

	// Failing probes double the re-probe interval, capped at the default
	// 8x the configured interval.
	wants := []time.Duration{
		2 * time.Minute, 4 * time.Minute, 8 * time.Minute, 8 * time.Minute,
	}
	for i, want := range wants {
		if _, err := mon.Tick(context.Background()); err == nil {
			t.Fatalf("tick %d succeeded on a broken source", i)
		}
		if got := mon.NextInterval(); got != want {
			t.Fatalf("after %d failures NextInterval = %v, want %v", i+1, got, want)
		}
	}

	st := mon.Status()
	if st.ConsecFailures != int64(len(wants)) {
		t.Fatalf("ConsecFailures = %d, want %d", st.ConsecFailures, len(wants))
	}
	if st.Errors != int64(len(wants)) {
		t.Fatalf("Errors = %d, want %d", st.Errors, len(wants))
	}
	if st.LastErr == "" {
		t.Fatal("LastErr empty after failed probes")
	}
	if want := (8 * time.Minute).Seconds(); st.NextIntervalSeconds != want {
		t.Fatalf("NextIntervalSeconds = %g, want %g", st.NextIntervalSeconds, want)
	}

	// One healthy probe resets the backoff completely.
	src.broken = false
	if _, err := mon.Tick(context.Background()); err != nil {
		t.Fatalf("healed tick: %v", err)
	}
	if got := mon.NextInterval(); got != time.Minute {
		t.Fatalf("NextInterval after recovery = %v, want 1m", got)
	}
	if got := mon.Status().ConsecFailures; got != 0 {
		t.Fatalf("ConsecFailures after recovery = %d, want 0", got)
	}
}

func TestSetBaselineSwapsComparisonAnchor(t *testing.T) {
	oldBase := genRel(2000, 1, 1, "")
	oldProfile := BuildProfile(oldBase, []int{0})
	oldProfile.Pivot = "Model"

	// The live source has drifted far from the old baseline.
	shifted := genRel(2000, 12, 2.5, "")
	mon := NewMonitor(webdb.NewLocal(shifted), oldProfile, MonitorConfig{SampleLimit: 1500})
	rep, err := mon.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxPSI < 0.25 {
		t.Fatalf("old baseline vs shifted source: MaxPSI = %g, want breach", rep.MaxPSI)
	}

	// Rebase onto a profile of the shifted data (what a re-learn produces):
	// the same source now compares clean.
	newProfile := BuildProfile(genRel(2000, 13, 2.5, ""), []int{0})
	newProfile.Pivot = "Model"
	mon.SetBaseline(newProfile)
	if got := mon.Baseline(); got != newProfile {
		t.Fatal("Baseline() does not return the rebased profile")
	}
	rep, err = mon.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxPSI >= 0.25 {
		t.Fatalf("rebased baseline still breaches: MaxPSI = %g", rep.MaxPSI)
	}

	// nil rebases are ignored (a snapshot without a drift profile).
	mon.SetBaseline(nil)
	if mon.Baseline() != newProfile {
		t.Fatal("nil SetBaseline cleared the baseline")
	}
}

// blockedSource holds every query until the caller's context ends or the
// test releases it; entered closes at the first query.
type blockedSource struct {
	webdb.Source
	entered, release chan struct{}
	once             sync.Once
}

func (b *blockedSource) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	b.once.Do(func() { close(b.entered) })
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-b.release:
		return nil, errors.New("released")
	}
}

// TestRunStopsBlockedReprobe: cancelling Run's context reaches a re-probe
// blocked in the source, and Run returns within a second.
func TestRunStopsBlockedReprobe(t *testing.T) {
	profile := BuildProfile(genRel(200, 1, 1, ""), []int{0})
	src := &blockedSource{
		Source:  webdb.NewLocal(genRel(200, 2, 1, "")),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	t.Cleanup(func() { close(src.release) })
	mon := NewMonitor(src, profile, MonitorConfig{Interval: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		mon.Run(ctx)
		close(done)
	}()
	<-src.entered
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Run still running 1s after its context was cancelled during a blocked re-probe")
	}
}
