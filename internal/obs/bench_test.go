package obs

import (
	"context"
	"testing"
)

// BenchmarkNilRecorder measures the instrumentation call surface with no
// recorder installed — the production hot path when tracing is off. The
// acceptance bar is 0 allocs/op and single-digit nanoseconds.
func BenchmarkNilRecorder(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := FromContext(ctx)
		sp := rec.StartSpan("base_set")
		rec.SetBase("q", 1)
		rec.AddStep(StepRecord{})
		sp.End()
	}
}

// BenchmarkActiveRecorder is the comparison point: what one fully recorded
// step costs when tracing is on.
func BenchmarkActiveRecorder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := NewRecorder("id", "q")
		sp := rec.StartSpan("relax")
		rec.AddStep(StepRecord{Extracted: 3, Qualified: 1})
		sp.End()
		rec.Finish()
	}
}
