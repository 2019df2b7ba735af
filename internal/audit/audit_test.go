package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aimq/internal/core"
)

func event(i int, answers int) *Event {
	e := &Event{
		Record:     RecordAnswer,
		TimeUnixMs: int64(1700000000000 + i),
		Query:      fmt.Sprintf("Model=M%d", i),
		K:          10,
		Tsim:       0.5,
		LatencyMs:  float64(i),
	}
	for j := 0; j < answers; j++ {
		e.Rows = append(e.Rows, Row{
			Values: []string{fmt.Sprintf("M%d", i), fmt.Sprintf("v%d", j)},
			Sim:    1 - float64(j)*0.1,
		})
	}
	e.SetSimStats()
	return e
}

// syncBuffer serializes access: the writer goroutine writes while the test
// goroutine may read after Close.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestWriterSinkRoundTrip(t *testing.T) {
	var buf syncBuffer
	w, err := NewWriter(Config{
		Sink:   &buf,
		Header: Header{Service: "test", ModelFingerprint: "abc123"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Record(event(i, i%3))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Written != 5 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}

	log, err := ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Header == nil || log.Header.ModelFingerprint != "abc123" || log.Header.Version != FormatVersion {
		t.Fatalf("header = %+v", log.Header)
	}
	if len(log.Events) != 5 || log.Truncated != 0 {
		t.Fatalf("events = %d truncated = %d", len(log.Events), log.Truncated)
	}
	if e := log.Events[2]; e.Answers != 2 || e.TopSim != 1 || e.MinSim != 0.9 {
		t.Errorf("sim stats did not round-trip: %+v", e)
	}
}

func TestWriterRotationBoundaries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	w, err := NewWriter(Config{
		Path:     path,
		MaxBytes: 600, // a few events per generation
		MaxFiles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		w.Record(event(i, 2))
		// Rotation renames use a nanosecond timestamp suffix; leave room so
		// two rotations never collide on one name.
		time.Sleep(time.Millisecond / 4)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Written != 40 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Rotations < 2 {
		t.Fatalf("rotations = %d, want >= 2 with MaxBytes=600", st.Rotations)
	}

	gens, err := filepath.Glob(path + ".*")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) > 2 {
		t.Fatalf("pruning kept %d generations, MaxFiles=2: %v", len(gens), gens)
	}
	// Every file — active and rotated — starts with a header and stays
	// under the size cap plus one event of slack.
	for _, p := range append(gens, path) {
		log, err := ReadLogFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if log.Header == nil {
			t.Errorf("%s: no header record", p)
		}
		info, _ := os.Stat(p)
		if p != path && info.Size() > 600+600 {
			t.Errorf("%s: %d bytes, far over MaxBytes", p, info.Size())
		}
	}

	// Total retained events must be contiguous from the tail: the last
	// event written is always in the active file.
	log, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(log.Events); n == 0 || log.Events[n-1].Query != "Model=M39" {
		t.Errorf("active file tail = %+v", log.Events)
	}
}

// blockingWriter passes the header write (done synchronously in NewWriter)
// through, then parks the writer goroutine until released, so the ring
// saturates deterministically.
type blockingWriter struct {
	release chan struct{}
	n       int
}

func (b *blockingWriter) Write(p []byte) (int, error) {
	b.n++
	if b.n > 1 {
		<-b.release
	}
	return len(p), nil
}

func TestWriterDropCounterUnderSaturatedRing(t *testing.T) {
	bw := &blockingWriter{release: make(chan struct{})}
	w, err := NewWriter(Config{Sink: bw, Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}

	// The first event enters the write loop and blocks; Buffer more queue;
	// the rest must drop without ever blocking this goroutine.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			w.Record(event(i, 0))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Record blocked on a saturated ring")
	}

	close(bw.release)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Dropped == 0 {
		t.Fatalf("no drops recorded: %+v", st)
	}
	if st.Written+st.Dropped != 100 {
		t.Fatalf("written %d + dropped %d != 100", st.Written, st.Dropped)
	}
}

func TestWriterSampling(t *testing.T) {
	var buf syncBuffer
	w, err := NewWriter(Config{Sink: &buf, SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		w.Record(event(i, 0))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Written != 25 || st.SampledOut != 75 {
		t.Fatalf("SampleRate=4 over 100: written=%d sampled_out=%d", st.Written, st.SampledOut)
	}
	log, err := ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Header.SampleRate != 4 {
		t.Errorf("header sample_rate = %d", log.Header.SampleRate)
	}
}

func TestWriterConcurrentRecord(t *testing.T) {
	var buf syncBuffer
	w, err := NewWriter(Config{Sink: &buf, Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w.Record(event(g*50+i, 1))
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Written+st.Dropped != 400 {
		t.Fatalf("written %d + dropped %d != 400", st.Written, st.Dropped)
	}
	log, err := ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(log.Events)) != st.Written {
		t.Fatalf("decoded %d events, stats say %d", len(log.Events), st.Written)
	}
}

func TestReaderToleratesTruncatedLastLine(t *testing.T) {
	var buf syncBuffer
	w, err := NewWriter(Config{Sink: &buf})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.Record(event(i, 1))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-write leaves a partial final line.
	full := buf.String()
	cut := full[:len(full)-20] + "\n"
	log, err := ReadLog(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail rejected: %v", err)
	}
	if len(log.Events) != 2 || log.Truncated != 1 {
		t.Fatalf("events=%d truncated=%d", len(log.Events), log.Truncated)
	}

	// The same garbage mid-file is corruption, not truncation.
	corrupt := cut + full[strings.LastIndexByte(strings.TrimRight(full, "\n"), '\n')+1:]
	if _, err := ReadLog(strings.NewReader(corrupt)); err == nil {
		t.Fatal("mid-file garbage accepted")
	}
}

func TestReaderSkipsUnknownRecords(t *testing.T) {
	in := `{"record":"header","version":1}` + "\n" +
		`{"record":"future-thing","x":1}` + "\n" +
		`{"record":"answer","query":"a=1","answers":0}` + "\n"
	log, err := ReadLog(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 1 || log.Truncated != 0 {
		t.Fatalf("events=%d truncated=%d", len(log.Events), log.Truncated)
	}
}

func TestReadLogFilesMergesGenerations(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for g := 0; g < 2; g++ {
		p := filepath.Join(dir, fmt.Sprintf("gen%d.jsonl", g))
		var buf syncBuffer
		w, err := NewWriter(Config{Sink: &buf, Header: Header{Service: fmt.Sprintf("v%d", g)}})
		if err != nil {
			t.Fatal(err)
		}
		w.Record(event(g, 1))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	log, err := ReadLogFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 2 {
		t.Fatalf("merged %d events", len(log.Events))
	}
	if log.Header.Service != "v0" {
		t.Errorf("first header should win, got %q", log.Header.Service)
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{*event(0, 0), *event(1, 2), *event(2, 4)}
	events[1].RelaxDepthMax = 1
	events[2].RelaxDepthMax = 1
	events[2].Degraded = true
	s := Summarize(events)
	if s.Events != 3 || s.ZeroAnswer != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.ZeroAnswerRate < 0.33 || s.ZeroAnswerRate > 0.34 {
		t.Errorf("zero answer rate = %g", s.ZeroAnswerRate)
	}
	if s.AnswersPerQuery != 2 {
		t.Errorf("answers/query = %g", s.AnswersPerQuery)
	}
	if s.DepthDist[1] != 2 || s.DepthDist[0] != 1 {
		t.Errorf("depth dist = %v", s.DepthDist)
	}
	if s.Degraded != 1 {
		t.Errorf("degraded = %d", s.Degraded)
	}
	if got := s.Depths(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("depths = %v", got)
	}
}

// fixedTarget replays from a map, optionally perturbing sims.
type fixedTarget struct {
	rows map[string][]Row
	err  error
}

func (f *fixedTarget) Answer(q string, k int, tsim float64) ([]Row, error) {
	if f.err != nil {
		return nil, f.err
	}
	return f.rows[q], nil
}

func TestReplayIdentical(t *testing.T) {
	events := []Event{*event(0, 2), *event(1, 0), *event(2, 3)}
	rows := map[string][]Row{}
	for _, e := range events {
		rows[e.Query] = e.Rows
	}
	rep := Replay(events, &fixedTarget{rows: rows})
	if rep.Identical != 3 || rep.Changed != 0 || rep.Errors != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.SimShiftMax != 0 || len(rep.Diffs) != 0 {
		t.Fatalf("clean replay produced diffs: %+v", rep.Diffs)
	}
	if rep.ZeroAnswerRateRecorded != rep.ZeroAnswerRateReplayed {
		t.Errorf("zero answer rates diverged: %+v", rep)
	}
}

func TestReplayDetectsChange(t *testing.T) {
	events := []Event{*event(0, 2), *event(1, 2)}
	rows := map[string][]Row{events[0].Query: events[0].Rows}
	// Second query: same values, shifted sim.
	shifted := make([]Row, len(events[1].Rows))
	copy(shifted, events[1].Rows)
	shifted[0] = Row{Values: shifted[0].Values, Sim: shifted[0].Sim - 0.2}
	rows[events[1].Query] = shifted

	rep := Replay(events, &fixedTarget{rows: rows})
	if rep.Identical != 1 || rep.Changed != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.SimShiftMax < 0.19 || rep.SimShiftMax > 0.21 {
		t.Errorf("sim shift max = %g", rep.SimShiftMax)
	}
	if len(rep.Diffs) != 1 || rep.Diffs[0].Query != events[1].Query {
		t.Errorf("diffs = %+v", rep.Diffs)
	}
}

func TestReplayCountsErrors(t *testing.T) {
	events := []Event{*event(0, 1)}
	rep := Replay(events, &fixedTarget{err: fmt.Errorf("target down")})
	if rep.Errors != 1 || rep.Replayed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Diffs) != 1 || rep.Diffs[0].Err == "" {
		t.Errorf("diffs = %+v", rep.Diffs)
	}
}

// TestEngineConfigRoundTrip: every replay-relevant core.Config field
// survives the trip through a log header's engine block, JSON included, so
// an in-process replay runs under the configuration the answers were
// recorded with.
func TestEngineConfigRoundTrip(t *testing.T) {
	for _, cfg := range []core.Config{
		{
			K: 7, Tsim: 0.65, BaseLimit: 12, PerQueryLimit: 150, TargetRelevant: 40,
			MaxQueriesPerBase: 9, OnFailure: core.FailDegrade, DisablePruning: true,
			KeyPruneMaxError: 0.05,
		},
		{K: 3, Tsim: 0.4, OnFailure: core.FailAbort},
	} {
		ec := EngineConfigOf(cfg)
		if cfg.OnFailure == core.FailDegrade {
			// The fully set config must reach every field of the block.
			v := reflect.ValueOf(ec)
			for i := 0; i < v.NumField(); i++ {
				if v.Field(i).IsZero() {
					t.Errorf("EngineConfig.%s not recorded", v.Type().Field(i).Name)
				}
			}
		}
		b, err := json.Marshal(Header{Engine: ec})
		if err != nil {
			t.Fatal(err)
		}
		var h Header
		if err := json.Unmarshal(b, &h); err != nil {
			t.Fatal(err)
		}
		if got := h.Engine.CoreConfig(); !reflect.DeepEqual(got, cfg) {
			t.Errorf("round trip changed the engine config\n got %+v\nwant %+v", got, cfg)
		}
	}
}
