package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. The lists below are the benchmark's
// contract and must match BENCHMARK.json (TestBenchmarkJSONMatches).
type metric struct{ name, unit string }

// endToEnd are the untraced run's metrics. failed_share and the tail
// percentiles are printed in the report but are not contract metrics:
// failed_share is 0 on a healthy run, and on car-hot-swap every percentile
// from p90 up lies inside the swap cliff, where it moves about twice as
// much as machine speed does, more than any bound may allow.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"requests_per_s", "req/s"},
	{"answer_p50_ms", "ms"},
	{"cpu_ms_per_request", "ms"},
	{"source_queries_per_request", "count"},
	{"work_per_relevant", "tuples"},
	{"answers_per_request", "count"},
	{"mean_sim", "Sim"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics, every one reported on every
// workload (0 where a layer is not on the workload's path).
var perLayer = []metric{
	{"http.ms_per_request", "ms"},
	{"service.handler_ms_per_request", "ms"},
	{"service.self_ms_per_request", "ms"},
	{"service.cache_hit_share", "ratio"},
	{"service.response_bytes_per_request", "bytes"},
	{"service.warm_ms", "ms"},
	{"core.self_ms_per_request", "ms"},
	{"core.base_tuples_per_request", "tuples"},
	{"core.steps_pruned_per_request", "count"},
	{"core.qualified_share", "ratio"},
	{"relax.schedule_ms_per_request", "ms"},
	{"relax.steps_per_request", "count"},
	{"relax.issued_share", "ratio"},
	{"webdb.calls_per_request", "count"},
	{"webdb.ms_per_request", "ms"},
	{"webdb.us_per_call", "us"},
	{"webdb.tuples_per_call", "tuples"},
	{"webdb.failed_share", "ratio"},
	{"webdb.retries_per_request", "count"},
	{"webdb.transport_ms_per_request", "ms"},
	{"webdb.bytes_per_call", "bytes"},
	{"engine.ms_per_request", "ms"},
	{"engine.us_per_query", "us"},
	{"engine.chunks_visited_per_query", "count"},
	{"engine.tuples_scanned_per_query", "tuples"},
	{"relation.load_ms", "ms"},
	{"learn.probe_ms", "ms"},
	{"learn.mine_ms", "ms"},
	{"learn.supertuple_ms", "ms"},
	{"learn.snapshot_ms", "ms"},
	{"tane.products_computed", "count"},
	{"probe.spanning_queries", "count"},
	{"lifecycle.refresh_ms", "ms"},
	{"lifecycle.learn_ms", "ms"},
	{"lifecycle.promotes", "count"},
	{"loadgen.send_lag_p99_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"trace.unaccounted_ms_per_request", "ms"},
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted and whether at
// least minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted)-rank >= minBeyond
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
