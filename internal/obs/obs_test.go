package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aimq/internal/relation"
)

func TestNilRecorderIsSafeNoOp(t *testing.T) {
	var r *Recorder
	if r.Active() {
		t.Fatal("nil recorder claims active")
	}
	sp := r.StartSpan("x")
	sp.End()
	r.BaseProbe("q", 1, false)
	r.SetBase("q", 1)
	r.SetStepRenderer(StepRenderer{})
	if buf := r.PlanBuffer(); buf != nil {
		t.Errorf("PlanBuffer on nil = %v, want nil", buf)
	}
	r.AddEngineExec(&EngineExec{})
	if idx := r.AddStep(StepRecord{}); idx != -1 {
		t.Errorf("AddStep on nil = %d, want -1", idx)
	}
	r.AddAnswer(AnswerExplain{})
	r.SetError(errors.New("boom"))
	if tr := r.Finish(); tr.ID != "" || tr.NumSteps() != 0 {
		t.Errorf("nil Finish returned non-zero trace %+v", tr)
	}
	if d := r.SpanDurations(); d != nil {
		t.Errorf("nil SpanDurations = %v", d)
	}
	if r.Since() != 0 {
		t.Errorf("nil Since != 0")
	}
}

func TestFromContextWithoutRecorder(t *testing.T) {
	if rec := FromContext(context.Background()); rec != nil {
		t.Fatalf("FromContext on bare context = %v, want nil", rec)
	}
	// WithRecorder(nil) must not install anything.
	ctx := WithRecorder(context.Background(), nil)
	if rec := FromContext(ctx); rec != nil {
		t.Fatalf("nil recorder installed: %v", rec)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	rec := NewRecorder("req-1", "Model like Camry")
	ctx := WithRecorder(context.Background(), rec)
	got := FromContext(ctx)
	if got != rec {
		t.Fatal("FromContext did not return the installed recorder")
	}

	sp := got.StartSpan("base_set")
	got.BaseProbe("Model = Camry", 0, false)
	got.BaseProbe("Model = Camry (wide)", 4, false)
	got.SetBase("Model = Camry (wide)", 4)
	sp.End()

	i0 := got.AddStep(StepRecord{Base: 0, Extracted: 10, Qualified: 3})
	i1 := got.AddStep(StepRecord{Base: 0, Extracted: 5, DupHits: 2})
	if i0 != 0 || i1 != 1 {
		t.Fatalf("step indices %d, %d; want 0, 1", i0, i1)
	}
	got.AddAnswer(AnswerExplain{Rank: 1, Sim: 0.9, Steps: []int{0, 1}})

	tr := got.Finish()
	if tr.ID != "req-1" || tr.Query != "Model like Camry" {
		t.Errorf("trace identity: %+v", tr)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "base_set" {
		t.Errorf("spans: %+v", tr.Spans)
	}
	if len(tr.BaseProbe) != 2 || tr.BaseQuery != "Model = Camry (wide)" || tr.BaseCount != 4 {
		t.Errorf("base probes: %+v", tr)
	}
	if steps := tr.RelaxSteps(); len(steps) != 2 || steps[0].Step != 0 || steps[1].Step != 1 || steps[1].DupHits != 2 {
		t.Errorf("steps: %+v", steps)
	}
	if len(tr.Answers) != 1 || tr.Answers[0].Rank != 1 {
		t.Errorf("answers: %+v", tr.Answers)
	}
	if tr.ElapsedMs < 0 {
		t.Errorf("elapsed %v", tr.ElapsedMs)
	}

	// The snapshot is a copy: mutating the recorder afterwards must not
	// change the returned trace.
	got.AddStep(StepRecord{})
	if tr.NumSteps() != 2 {
		t.Errorf("snapshot aliases recorder state")
	}
}

// TestStepLogSnapshots: steps are kept in chunks of logChunk records; a
// snapshot taken at or inside a chunk boundary keeps exactly the steps
// recorded before it while the recorder goes on adding.
func TestStepLogSnapshots(t *testing.T) {
	rec := NewRecorder("req-l", "q")
	var snaps []Trace
	for i := 0; i < 3*logChunk+5; i++ {
		if i == logChunk || i == logChunk+7 || i == 2*logChunk {
			snaps = append(snaps, rec.Snapshot())
		}
		rec.AddStep(StepRecord{Extracted: int32(i), Drop: relation.AttrSet(i)})
	}
	snaps = append(snaps, rec.Finish())
	for j, want := range []int{logChunk, logChunk + 7, 2 * logChunk, 3*logChunk + 5} {
		tr := snaps[j]
		steps := tr.RelaxSteps()
		if tr.NumSteps() != want || len(steps) != want {
			t.Fatalf("snapshot %d holds %d steps (%d rendered), want %d", j, tr.NumSteps(), len(steps), want)
		}
		for i, st := range steps {
			if st.Step != i || st.Extracted != i || tr.StepDrops(i) != relation.AttrSet(i).Size() {
				t.Fatalf("snapshot %d, step %d: %+v, %d drops", j, i, st, tr.StepDrops(i))
			}
		}
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	rec := NewRecorder("req-c", "q")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := rec.StartSpan("s")
				plan := append(rec.PlanBuffer(), EnginePlanTerm{Attr: "A", Op: "=", Access: "posting"})
				rec.AddEngineExec(&EngineExec{Plan: plan})
				rec.AddStep(StepRecord{Base: int32(i)})
				sp.End()
				_ = rec.Snapshot().RelaxSteps()
			}
		}(i)
	}
	wg.Wait()
	tr := rec.Finish()
	if tr.NumSteps() != 8*50 {
		t.Errorf("steps = %d, want %d", tr.NumSteps(), 8*50)
	}
	// Step indices must be dense and match positions.
	for i, s := range tr.RelaxSteps() {
		if s.Step != i {
			t.Fatalf("step %d has index %d", i, s.Step)
		}
	}
}

func TestSpanDurations(t *testing.T) {
	rec := NewRecorder("req-d", "q")
	sp := rec.StartSpan("relax")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	sp2 := rec.StartSpan("relax")
	sp2.End()
	d := rec.SpanDurations()
	if d["relax"] < 1*time.Millisecond {
		t.Errorf("relax duration %v, want >= ~2ms", d["relax"])
	}
}

func TestRingRecentAndSlowest(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(Trace{ID: fmt.Sprintf("t%d", i), ElapsedMs: float64(i)})
	}
	// One slow outlier early would have been evicted from recent but must
	// survive in slowest; here t5..t3 are both the newest and slowest.
	recent, slowest := r.Snapshot()
	if len(recent) != 3 || recent[0].ID != "t5" || recent[1].ID != "t4" || recent[2].ID != "t3" {
		t.Errorf("recent = %v", ids(recent))
	}
	if len(slowest) != 3 || slowest[0].ID != "t5" || slowest[1].ID != "t4" || slowest[2].ID != "t3" {
		t.Errorf("slowest = %v", ids(slowest))
	}

	// Now a slow outlier followed by a burst of fast traces: the outlier
	// stays in slowest even after recent evicts it.
	r2 := NewRing(2)
	r2.Add(Trace{ID: "slow", ElapsedMs: 1000})
	r2.Add(Trace{ID: "f1", ElapsedMs: 1})
	r2.Add(Trace{ID: "f2", ElapsedMs: 2})
	r2.Add(Trace{ID: "f3", ElapsedMs: 3})
	recent, slowest = r2.Snapshot()
	if ids(recent) != "f3,f2" {
		t.Errorf("recent = %v", ids(recent))
	}
	if ids(slowest) != "slow,f3" {
		t.Errorf("slowest = %v", ids(slowest))
	}
	if r2.Len() != 2 {
		t.Errorf("Len = %d", r2.Len())
	}
}

func TestRingDisabledAndNil(t *testing.T) {
	r := NewRing(0)
	if r != nil {
		t.Fatal("NewRing(0) should be nil (disabled)")
	}
	r.Add(Trace{ID: "x"}) // must not panic
	recent, slowest := r.Snapshot()
	if recent != nil || slowest != nil {
		t.Errorf("disabled ring returned traces")
	}
	if r.Len() != 0 {
		t.Errorf("disabled ring Len != 0")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add(Trace{ID: fmt.Sprintf("%d-%d", i, j), ElapsedMs: float64(j)})
				r.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	recent, slowest := r.Snapshot()
	if len(recent) != 16 || len(slowest) != 16 {
		t.Errorf("retained %d recent, %d slowest; want 16/16", len(recent), len(slowest))
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
		if !strings.Contains(id, "-") {
			t.Fatalf("unexpected id shape %q", id)
		}
	}
}

// TestRequestIDBounds: a caller's ID of 1–128 visible ASCII bytes is kept
// without allocating; anything else is replaced by a minted ID.
func TestRequestIDBounds(t *testing.T) {
	for _, h := range []string{"a", "upstream-42", "!~", strings.Repeat("z", 128)} {
		if got := RequestID(h); got != h {
			t.Errorf("RequestID(%q) = %q, want it kept", h, got)
		}
		if n := testing.AllocsPerRun(100, func() { RequestID(h) }); n != 0 {
			t.Errorf("RequestID(%q) allocates %v", h, n)
		}
	}
	for _, h := range []string{"", strings.Repeat("z", 129), strings.Repeat("z", 64<<10),
		"has space", "tab\t", "nl\n", "del\x7f", "nul\x00", "ü"} {
		got := RequestID(h)
		if got == h || got == "" || len(got) > 128 {
			t.Errorf("RequestID(%.20q…) = %.20q…, want a fresh ID", h, got)
		}
	}
}

// TestNilPathZeroAllocs is the allocation guarantee as a hard test (the
// benchmark below shows the same on demand): with no recorder in the
// context, the full instrumentation call surface allocates nothing.
func TestNilPathZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		rec := FromContext(ctx)
		if rec.Active() {
			t.Fatal("unexpectedly active")
		}
		sp := rec.StartSpan("x")
		rec.SetBase("q", 1)
		rec.AddStep(StepRecord{})
		rec.AddAnswer(AnswerExplain{})
		sp.End()
		rec.Finish()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder path allocates %v per op, want 0", allocs)
	}
}

func ids(ts []Trace) string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return strings.Join(out, ",")
}
