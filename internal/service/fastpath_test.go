package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"
)

// get issues one GET and returns the recorder (tests here need headers, not
// just the decoded body).
func get(t *testing.T, s *Service, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

func TestFastPathServesRenderedBytes(t *testing.T) {
	rel := testDB(2000, 1)
	s := newService(t, rel, nil, Config{})
	target := "/answer?q=" + url.QueryEscape("Model like Camry")

	first := get(t, s, target, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("first GET: %d %s", first.Code, first.Body.String())
	}
	etag := first.Header().Get("Etag")
	if etag == "" {
		t.Fatalf("no ETag on computed answer")
	}
	var cold map[string]any
	if err := json.Unmarshal(first.Body.Bytes(), &cold); err != nil {
		t.Fatalf("cold body: %v", err)
	}
	if cached, _ := cold["cached"].(bool); cached {
		t.Fatalf("first answer claims cached")
	}

	// Repeat request: raw-query fast path, spliced from the rendered bytes.
	warm := get(t, s, target, nil)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm GET: %d %s", warm.Code, warm.Body.String())
	}
	if got := warm.Header().Get("Etag"); got != etag {
		t.Errorf("warm ETag %q != cold ETag %q", got, etag)
	}
	var hot map[string]any
	if err := json.Unmarshal(warm.Body.Bytes(), &hot); err != nil {
		t.Fatalf("warm body not valid JSON: %v\n%s", err, warm.Body.String())
	}
	if cached, _ := hot["cached"].(bool); !cached {
		t.Errorf("warm answer not marked cached")
	}
	if _, stale := hot["stale"]; stale {
		t.Errorf("warm answer wrongly marked stale")
	}
	if _, ok := hot["elapsed_ms"].(float64); !ok {
		t.Errorf("warm answer missing numeric elapsed_ms")
	}
	// Splicing must not perturb the payload: everything except the
	// trailer fields is byte-for-byte the cold answer.
	for _, k := range []string{"query", "answers", "k", "tsim", "work"} {
		ja, _ := json.Marshal(cold[k])
		jb, _ := json.Marshal(hot[k])
		if string(ja) != string(jb) {
			t.Errorf("field %s differs between cold and warm: %s vs %s", k, ja, jb)
		}
	}
	if hits, _, _ := s.Metrics(); hits == 0 {
		t.Errorf("fast path did not count a cache hit")
	}
}

func TestFastPathConditionalRequest(t *testing.T) {
	rel := testDB(2000, 1)
	s := newService(t, rel, nil, Config{})
	target := "/answer?q=" + url.QueryEscape("Model like Camry")
	etag := get(t, s, target, nil).Header().Get("Etag")
	if etag == "" {
		t.Fatalf("no ETag")
	}

	notMod := get(t, s, target, map[string]string{"If-None-Match": etag})
	if notMod.Code != http.StatusNotModified {
		t.Fatalf("matching If-None-Match: got %d, want 304", notMod.Code)
	}
	if notMod.Body.Len() != 0 {
		t.Errorf("304 carried a body: %q", notMod.Body.String())
	}

	modified := get(t, s, target, map[string]string{"If-None-Match": `"deadbeef"`})
	if modified.Code != http.StatusOK || modified.Body.Len() == 0 {
		t.Errorf("stale If-None-Match: got %d with %d body bytes, want 200 with body",
			modified.Code, modified.Body.Len())
	}
}

func TestFastPathEchoesRequestID(t *testing.T) {
	rel := testDB(2000, 1)
	s := newService(t, rel, nil, Config{})
	target := "/answer?q=" + url.QueryEscape("Model like Camry")
	get(t, s, target, nil) // populate cache + raw index

	w := get(t, s, target, map[string]string{"X-Request-ID": "req-42"})
	if got := w.Header().Get("X-Request-ID"); got != "req-42" {
		t.Errorf("fast path dropped the request ID: %q", got)
	}
	// Without a client-supplied ID, the fast path must not mint one.
	w = get(t, s, target, nil)
	if got := w.Header().Get("X-Request-ID"); got != "" {
		t.Errorf("fast path minted a request ID: %q", got)
	}
}

func TestCacheSnapshotRoundTrip(t *testing.T) {
	rel := testDB(2000, 1)
	s := newService(t, rel, nil, Config{})
	for _, q := range []string{"Model like Camry", "Make like Honda", "Class like truck"} {
		if code, body := do(t, s, http.MethodGet, "/answer?q="+url.QueryEscape(q), ""); code != http.StatusOK {
			t.Fatalf("seed %q: %d %v", q, code, body)
		}
	}
	snap := s.SnapshotCache(0)
	if len(snap.Entries) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap.Entries))
	}
	// Most recently used first.
	if snap.Entries[0].Query == "" || snap.Entries[0].K <= 0 {
		t.Fatalf("snapshot entry incomplete: %+v", snap.Entries[0])
	}

	path := filepath.Join(t.TempDir(), "cache.json")
	if err := SaveCacheSnapshot(path, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadCacheSnapshot(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(loaded.Entries) != len(snap.Entries) {
		t.Fatalf("loaded %d entries, want %d", len(loaded.Entries), len(snap.Entries))
	}

	// A fresh service warms every entry; a second warm is a no-op.
	fresh := newService(t, rel, nil, Config{})
	n, err := fresh.WarmCache(context.Background(), loaded)
	if err != nil || n != 3 {
		t.Fatalf("warm: n=%d err=%v, want 3 warmed", n, err)
	}
	n, err = fresh.WarmCache(context.Background(), loaded)
	if err != nil || n != 0 {
		t.Fatalf("second warm: n=%d err=%v, want 0", n, err)
	}
	// Warmed entries serve as cache hits.
	code, body := do(t, fresh, http.MethodGet, "/answer?q="+url.QueryEscape("Model like Camry"), "")
	if code != http.StatusOK {
		t.Fatalf("warmed answer: %d %v", code, body)
	}
	if cached, _ := body["cached"].(bool); !cached {
		t.Errorf("warmed entry did not serve from cache")
	}
}

func TestWarmCacheSkipsGarbageEntries(t *testing.T) {
	rel := testDB(2000, 1)
	s := newService(t, rel, nil, Config{})
	snap := CacheSnapshot{Version: cacheSnapshotVersion, Entries: []CacheSnapshotEntry{
		{Query: "Nope like Nothing", K: 10, Tsim: 0.5}, // unknown attribute
		{Query: "", K: 10, Tsim: 0.5},                  // empty
		{Query: "Model like Camry", K: -1, Tsim: 0.5},  // bad k
		{Query: "Model like Camry", K: 0, Tsim: 0.5},   // default k: the entry below
		{Query: "Model like Camry", K: 10, Tsim: 1.5},  // bad tsim
		{Query: "Model like Camry", K: 10, Tsim: 0.5},  // the one good entry
	}}
	n, err := s.WarmCache(context.Background(), snap)
	if err != nil || n != 1 {
		t.Fatalf("warm: n=%d err=%v, want exactly the valid entry warmed", n, err)
	}
}

// A warmed entry must be the one its request hits: k resolves through the
// request path's bounds, so an entry above MaxK warms the clamped k.
func TestWarmCacheClampsKLikeRequests(t *testing.T) {
	s := newService(t, testDB(2000, 1), nil, Config{MaxK: 5})
	snap := CacheSnapshot{Version: cacheSnapshotVersion, Entries: []CacheSnapshotEntry{
		{Query: "Model like Camry", K: 50, Tsim: 0.5},
	}}
	if n, err := s.WarmCache(context.Background(), snap); err != nil || n != 1 {
		t.Fatalf("warm: n=%d err=%v, want 1", n, err)
	}
	code, body := do(t, s, http.MethodGet, "/answer?q="+url.QueryEscape("Model like Camry")+"&k=50", "")
	if code != http.StatusOK {
		t.Fatalf("answer: %d %v", code, body)
	}
	if cached, _ := body["cached"].(bool); !cached {
		t.Errorf("the k=50 request missed the entry warmed from k=50")
	}
	if answers, _ := body["answers"].([]any); len(answers) > 5 {
		t.Errorf("warmed entry holds %d answers, above MaxK 5", len(answers))
	}
}

func TestLoadCacheSnapshotRejectsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte(`{"version": 99, "entries": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCacheSnapshot(path); err == nil {
		t.Fatalf("version 99 accepted")
	}
}
