package service

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aimq/internal/afd"
	"aimq/internal/core"
)

func guidedFor(ord *afd.Ordering) core.Relaxer { return &core.Guided{Ord: ord} }

// TestPromoteUnderConcurrentLoad is the hot-swap acceptance check (run
// under -race): worker goroutines hammer the answer endpoint while the main
// goroutine promotes a new engine pack every few milliseconds. No request
// may fail, and once the last promote lands, a repeated query must be
// recomputed (its old-generation cache entry unreachable) and served under
// the final fingerprint.
func TestPromoteUnderConcurrentLoad(t *testing.T) {
	rel := testDB(2000, 1)
	ordA, estA := learnFrom(t, rel)
	relB := testDB(2000, 99)
	ordB, estB := learnFrom(t, relB)

	svc := newService(t, rel, nil, Config{})
	svc.SetModelInfo(ModelInfo{Fingerprint: "fp-gen0", Built: true})

	queries := []string{
		"/answer?q=Model+like+Camry&k=3",
		"/answer?q=Price+like+12000&k=5",
		"/answer?q=Make+like+Honda&k=2",
		"/answer?q=Model+like+Civic,+Year+like+2000&k=4&tsim=0.3",
	}
	const workers = 8
	var (
		stop     atomic.Bool
		requests atomic.Int64
		failures atomic.Int64
		firstErr atomic.Value
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				code, out := do2(svc, queries[(w+i)%len(queries)])
				requests.Add(1)
				if code != 200 {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("status %d: %v", code, out))
					return
				}
			}
		}(w)
	}

	// 24 promotes alternating between two real models. All but the last
	// race the workers; the last lands after they stop, so none of them can
	// cache an answer under the final generation before the stale-answer
	// check below.
	const swaps = 24
	for i := 1; i <= swaps; i++ {
		if i == swaps {
			stop.Store(true)
			wg.Wait()
		}
		est, ord := estA, ordA
		if i%2 == 1 {
			est, ord = estB, ordB
		}
		gen := svc.Promote(est, guidedFor(ord), ModelInfo{
			Fingerprint: fmt.Sprintf("fp-gen%d", i), Built: true,
		})
		if gen != uint64(i) {
			t.Fatalf("promote %d returned generation %d", i, gen)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d/%d requests failed during swaps; first: %v",
			f, requests.Load(), firstErr.Load())
	}
	if requests.Load() < int64(workers) {
		t.Fatalf("only %d requests completed; load did not overlap the swaps", requests.Load())
	}
	if got := svc.ModelGeneration(); got != swaps {
		t.Fatalf("final generation = %d, want %d", got, swaps)
	}
	if got := svc.ModelSwaps(); got != swaps {
		t.Fatalf("swap counter = %d, want %d", got, swaps)
	}
	info, _ := svc.ModelInfo()
	if info.Fingerprint != fmt.Sprintf("fp-gen%d", swaps) {
		t.Fatalf("serving fingerprint = %q after final promote", info.Fingerprint)
	}

	// Stale-answer check: the workers populated the cache under earlier
	// generations; those entries must be unreachable now. A repeat of a
	// hammered query must MISS (recompute under the final pack), and then
	// HIT on its second issue.
	misses0 := svc.met.cacheMisses.Load()
	if code, _ := do2(svc, queries[0]); code != 200 {
		t.Fatalf("post-swap recompute failed")
	}
	if got := svc.met.cacheMisses.Load(); got != misses0+1 {
		t.Fatalf("post-swap request was served from an old generation's cache (misses %d -> %d)",
			misses0, got)
	}
	hits0 := svc.met.cacheHits.Load()
	if code, _ := do2(svc, queries[0]); code != 200 {
		t.Fatalf("post-swap cached request failed")
	}
	if got := svc.met.cacheHits.Load(); got != hits0+1 {
		t.Fatalf("recomputed answer not cached under the new generation (hits %d -> %d)", hits0, got)
	}
}

// TestPromoteFlushesCacheGenerations pins the cache-scoping contract
// single-threadedly: an answer cached under generation g is never served
// after a promote, even for the identical query.
func TestPromoteFlushesCacheGenerations(t *testing.T) {
	rel := testDB(2000, 1)
	svc := newService(t, rel, nil, Config{})
	const q = "/answer?q=Model+like+Camry&k=3"

	do2(svc, q) // compute, cache under gen 0
	if code, _ := do2(svc, q); code != 200 {
		t.Fatal("warm request failed")
	}
	hits := svc.met.cacheHits.Load()
	if hits == 0 {
		t.Fatal("second request did not hit the gen-0 cache")
	}

	ord, est := learnFrom(t, rel)
	svc.Promote(est, guidedFor(ord), ModelInfo{Fingerprint: "fp-next", Built: true})

	misses0 := svc.met.cacheMisses.Load()
	if code, _ := do2(svc, q); code != 200 {
		t.Fatal("post-promote request failed")
	}
	if svc.met.cacheMisses.Load() != misses0+1 {
		t.Fatal("identical query served from the pre-promote cache generation")
	}
}

// do2 is do without the testing.T JSON assertion (workers race, and a
// worker must not call t.Fatalf).
func do2(svc *Service, target string) (int, string) {
	r := httptest.NewRequest("GET", target, nil)
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, r)
	return w.Code, w.Body.String()
}
