# Tier-1 checks plus the race-checked serving path.
#
#   make check       — everything CI runs
#   make fmt         — fail when any Go file is not gofmt-clean
#   make race        — race-check the public aimq API (DB's concurrent Ask)
#                      and the concurrent packages (service, core, webdb,
#                      engine's columnar worker pool, similarity's chunked
#                      pair sweep, the probe worker pool, the learn
#                      pipeline's workers, aimq-serve's stack builder)
#   make fuzz        — fuzz the query parser, the columnar engine against
#                      its legacy oracle, the traceparent parser, the CSV
#                      relation reader, then the form source's /query form
#                      and result-page decoders, each for a short fixed time
#   make perfbench   — vet and test the end-to-end benchmark module
#   make bench-serve — serving-path benchmarks (cache hit vs miss)
#   make bench-learn — offline learn-phase scenarios only (probe→mine→order
#                      →supertuple at 1x/2x/4x sample sizes, plus the
#                      isolated TANE mine stage)
#   make bench-engine— columnar boolean-engine scan scenario only (full
#                      scale: 1M tuples, sub-ms p50)
#   make bench       — full aimq-bench suite, BENCH_*.json into bench-results/
#   make bench-quick — shrunken suite (the scale CI gates on)
#   make bench-check — quick suite compared against bench/baseline; fails on
#                      regressions past 2x
#   make baseline    — refresh the checked-in bench/baseline from a quick run

GO ?= go
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X aimq/internal/version.Version=$(VERSION)

.PHONY: check fmt vet build test race fuzz perfbench bench-serve bench-learn bench-engine bench bench-quick bench-check baseline

check: fmt vet build test race fuzz perfbench

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The answer cache and single-flight code are exercised concurrently; keep
# them race-clean. core and webdb carry the context plumbing they rely on,
# and obs is written to concurrently by every traced request. engine runs
# the columnar chunk worker pool (and its randomized differential suite);
# similarity chunks the VSim pair sweep across goroutines. tane shards
# lattice levels across workers (with its own differential oracle suite),
# and partition's scratch reuse backs that sharding. probe sends its
# spanning queries from a worker pool, its only runner. learn drives all of
# those worker pools from one Workers setting. serve starts the drift,
# refresh and debug goroutines beside the listener. The root package is the
# public API: DB documents that Ask is safe for concurrent use, and
# TestIntegrationConcurrentAsk holds it to that.
race:
	$(GO) test -race . ./internal/service/... ./internal/core/... ./internal/webdb/... ./internal/obs/... ./internal/engine/... ./internal/similarity/... ./internal/audit/... ./internal/drift/... ./internal/lifecycle/... ./internal/tane/... ./internal/partition/... ./internal/probe/... ./internal/learn/... ./internal/serve/...

# Parse reads untrusted query text, and the answer-cache key and cache
# snapshot rely on Parse(q.Text()) giving q back; every accepted query must
# also render as the fmt-based oracle does. FuzzColumnarVsLegacy picks
# small relations with -0, NaN and NULL numerics, conjunctions and limits,
# and holds both columnar paths (chunks and the exact-value walk) to the
# legacy row oracle. FuzzParseTraceparent feeds the W3C traceparent parser
# that every traced request reads from its caller. FuzzReadCSV feeds the
# relation reader every -data file goes through: it must never panic, and
# what it accepts must write, read and write again to the same bytes.
# FuzzParseForm and FuzzDecodeResult feed the two decoders of the form
# source's wire codec, which read what an autonomous source or its callers
# send: parseForm must give every appendForm query back and parse every raw
# query as the url.ParseQuery-based oracle does; decodeResult must never
# panic, must agree with encoding/json + ParseValue on whatever it accepts,
# and must read back every page appendResult writes. A crasher the fuzzer
# finds lands in the package's testdata/fuzz/ and then runs with every go
# test.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzColumnarVsLegacy$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s ./internal/relation
	$(GO) test -run '^$$' -fuzz '^FuzzParseForm$$' -fuzztime 10s ./internal/webdb
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime 10s ./internal/webdb

# perfbench is its own module (replace aimq => ../), so the root go test
# never compiles it; this keeps it building against the service API.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench-serve:
	$(GO) test -run XXX -bench 'BenchmarkService_' -benchmem ./internal/service/

bench-learn:
	$(GO) run -ldflags '$(LDFLAGS)' ./cmd/aimq-bench -run learn,mine -out bench-results

# Full scale: 1M generated tuples, sub-millisecond boolean-query p50 on the
# columnar path (posting-bitmap ANDs, zone-map skips, popcount counts).
bench-engine:
	$(GO) run -ldflags '$(LDFLAGS)' ./cmd/aimq-bench -run engine-scan -out bench-results

bench:
	$(GO) run -ldflags '$(LDFLAGS)' ./cmd/aimq-bench -out bench-results

bench-quick:
	$(GO) run -ldflags '$(LDFLAGS)' ./cmd/aimq-bench -quick -out bench-results

# The alloc gates are absolute, not baseline-relative: the zero-allocation
# serve path stays under 16 allocs/op (measured ~3), the columnar engine's
# scan path under 64 (measured ~9 on one CPU: plan + accumulator + result;
# 13 on two, where unlimited scans fan out), one guided Algorithm 1
# answer under 1000 (measured ~830 at 1, 2 and 4 CPUs with a pooled
# answer table; ~866 without the pool, ~1,060 when every retrieval was
# keyed into a per-request gate table, 2,888 when every tuple key was
# rebuilt by string concatenation), and one traced cold answer through
# the service under 2550 (measured ~1,700 with each step kept as a
# pointer-free record and its text rendered on read; ~2,165 when every
# step kept its query text and engine EXPLAIN, 5,768 when every step's
# query was rendered through fmt and every step kept its own engine plan).
bench-check:
	$(GO) run -ldflags '$(LDFLAGS)' ./cmd/aimq-bench -quick -out bench-results \
		-baseline bench/baseline -threshold 2 -alloc-gate serve-warm=16,engine-scan=64,guided=1000,serve-cold=2550

baseline:
	$(GO) run -ldflags '$(LDFLAGS)' ./cmd/aimq-bench -quick -out bench/baseline
