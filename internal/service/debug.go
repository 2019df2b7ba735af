package service

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"aimq/internal/engine"
	"aimq/internal/obs"
	"aimq/internal/webdb"
)

// engineBacked is satisfied by sources that expose their boolean engine
// (webdb.Local does); /debug/source reports its execution counters.
type engineBacked interface {
	Engine() *engine.Engine
}

// engine returns the boolean engine backing the source, unwrapping any
// middleware chain (ProbeCounter, Resilient) first; nil when the source is
// remote and the engine lives in another process.
func (s *Service) engine() *engine.Engine {
	if eb, ok := webdb.Innermost(s.src).(engineBacked); ok {
		return eb.Engine()
	}
	return nil
}

// DebugHandler returns the diagnostics surface, meant to be served on a
// separate (private) listener — the -debug-addr flag of the binaries:
//
//	/debug/          index of everything below
//	/debug/traces    the trace ring (recent + slowest answer traces)
//	/debug/traces/export   the same traces as Chrome trace-event JSON,
//	                 loadable in Perfetto / chrome://tracing
//	/debug/learn     offline-phase profile of the served model
//	/debug/source    boolean-engine execution counters
//	/debug/vars      expvar (memstats, cmdline)
//	/debug/pprof/    the standard pprof profiles
//
// Everything here is read-only, but profiles and traces reveal query
// contents — keep the listener off public interfaces.
func (s *Service) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	obs.HandleTraces(mux, s.ring)
	mux.HandleFunc("GET /debug/learn", s.handleLearn)
	mux.HandleFunc("GET /debug/drift", s.handleDrift)
	mux.HandleFunc("GET /debug/source", s.handleSource)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/{$}", s.handleDebugIndex)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/debug/", http.StatusFound)
	})
	return mux
}

func (s *Service) handleDebugIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "aimq debug surface (uptime %s)\n\n", time.Since(s.start).Round(time.Second))
	fmt.Fprintln(w, "/debug/traces   recent and slowest answer traces")
	fmt.Fprintln(w, "/debug/traces/export   retained traces as Chrome trace-event JSON (Perfetto)")
	fmt.Fprintln(w, "/debug/learn    offline learning-phase profile + model identity")
	fmt.Fprintln(w, "/debug/drift    model-drift monitor status (PSI per attribute)")
	fmt.Fprintln(w, "/debug/source   boolean-engine execution counters")
	fmt.Fprintln(w, "/debug/vars     expvar")
	fmt.Fprintln(w, "/debug/pprof/   pprof profiles")
}

// handleLearn reports how the served model was built — the learning profile
// (when the model was learned in this process) with the model's identity
// card merged in under "model". 404 only when neither is available.
func (s *Service) handleLearn(w http.ResponseWriter, _ *http.Request) {
	ls := s.LearnStats()
	mb := s.modelBlock()
	if ls == nil && mb == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "no learning profile: model loaded from snapshot or stats not attached"})
		return
	}
	out := map[string]any{}
	if ls != nil {
		// Keep the LearnStats fields at the top level (the historical
		// response shape) by round-tripping through JSON.
		b, err := json.Marshal(ls)
		if err == nil {
			_ = json.Unmarshal(b, &out)
		}
	}
	if mb != nil {
		out["model"] = mb
	}
	if rep := s.lifecycleReporter(); rep != nil {
		out["refresh"] = rep.RefreshStats()
	}
	writeJSON(w, http.StatusOK, out)
}

// modelBlock is the served model's identity card as /healthz and
// /debug/learn report it; nil when none was set.
func (s *Service) modelBlock() map[string]any {
	p := s.pack.Load()
	if !p.infoSet {
		return nil
	}
	mb := map[string]any{
		"fingerprint": p.info.Fingerprint,
		"built":       p.info.Built,
		"generation":  p.gen,
	}
	if p.info.LearnedAtUnix != 0 {
		mb["learned_at"] = p.info.LearnedAt().UTC().Format(time.RFC3339)
		mb["age_seconds"] = time.Since(p.info.LearnedAt()).Seconds()
	}
	if p.info.SampleSize != 0 {
		mb["sample_size"] = p.info.SampleSize
	}
	if p.info.Pivot != "" {
		mb["pivot"] = p.info.Pivot
	}
	return mb
}

// handleSource reports the underlying boolean engine's counters, plus the
// process's memory footprint — enough to answer "is the source the
// bottleneck" without attaching pprof.
func (s *Service) handleSource(w http.ResponseWriter, _ *http.Request) {
	eng := s.engine()
	if eng == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: fmt.Sprintf("source %T does not expose engine statistics", s.src)})
		return
	}
	snap := eng.Stats().Snapshot()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	out := map[string]any{
		"queries":          snap.Queries,
		"tuples_returned":  snap.TuplesReturned,
		"tuples_scanned":   snap.TuplesScanned,
		"busy_seconds":     snap.Busy().Seconds(),
		"relation_size":    eng.Relation().Size(),
		"heap_bytes":       mem.HeapAlloc,
		"goroutines":       runtime.NumGoroutine(),
		"chunks_visited":   snap.ChunksVisited,
		"zone_killed":      snap.ZoneKilled,
		"zone_skipped":     snap.ZoneSkipped,
		"posting_empty":    snap.PostingEmpty,
		"dense_rows":       snap.DenseRows,
		"sparse_checks":    snap.SparseChecks,
		"parallel_queries": snap.ParallelQueries,
	}
	if st := eng.Store(); st != nil {
		// The physical layout half of an EXPLAIN: which predicates can ride
		// posting bitmaps, and how many zone-map entries guard each numeric.
		out["columns"] = st.Describe()
	}
	writeJSON(w, http.StatusOK, out)
}
