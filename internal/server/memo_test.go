package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

// postRaw sends body verbatim with the given content type and returns
// the status, the X-Prefgcd-Cache header and the reply.
func postRaw(t *testing.T, url, contentType, body string) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(CacheHeader), string(out)
}

// lookups is the result cache's hits plus misses.
func lookups(s *Server) int64 {
	hits, misses, _ := s.cache.Counters()
	return hits + misses
}

// tierServed is the total of prefgcd_tier_served_total.
func tierServed(s *Server) int64 {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	var n int64
	for _, v := range s.metrics.tierServed {
		n += v
	}
	return n
}

// Bodies that spell one request differently — whitespace, key order,
// defaults written out, another timeout_ms — are separate memo entries
// that resolve to one cache entry.
func TestMemoSpellingsShareEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := jsonSource(smallFunc)
	bodies := []string{
		`{"source":` + src + `}`,
		`{ "source" : ` + src + ` }`,
		`{"k":16,"source":` + src + `,"machine":"ia64"}`,
		`{"source":` + src + `,"timeout_ms":2500}`,
	}
	for i, body := range bodies {
		for rep := 0; rep < 2; rep++ {
			code, cache, reply := postRaw(t, ts.URL+"/v1/allocate", "application/json", body)
			want := "hit"
			if i == 0 && rep == 0 {
				want = "miss"
			}
			if code != http.StatusOK || cache != want {
				t.Fatalf("body %d, pass %d: status %d, cache %q, want 200 %q: %s", i, rep, code, cache, want, reply)
			}
		}
	}
	if n := s.cache.Len(); n != 1 {
		t.Errorf("cache holds %d entries, want 1", n)
	}
	// One text entry for the source, one body entry per spelling.
	if n := s.keys.memo.Len(); n != 1+len(bodies) {
		t.Errorf("memo holds %d entries, want %d", n, 1+len(bodies))
	}
}

// A memo hit whose cache entry was evicted recomputes and answers as a
// miss; the next request hits the refilled entry. Every cacheable
// request moves the cache's hits plus misses by exactly one, and the
// tier-served total by one.
func TestMemoEvictedEntryCountsOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Tier: true, CacheEntries: 1})
	// Upgrades run cancelled and never land, so entries stay fast and
	// only requests fill the cache.
	s.queue.stopLow()
	alloc := ts.URL + "/v1/allocate"
	a := `{"source":` + jsonSource(smallFunc) + `}`
	b := `{"source":` + jsonSource(distinctFunc(1)) + `}`
	_, aBin := mustEncode(t, smallFunc)

	steps := []struct {
		name, url, contentType, body string
		cache                        string // X-Prefgcd-Cache; "" for batch
		cached                       string // the reply's "cached" field(s)
		lookups, served              int64
	}{
		{"a, first", alloc, "application/json", a, "miss", `"cached":false`, 1, 1},
		{"a, memo hit", alloc, "application/json", a, "hit", `"cached":true`, 1, 1},
		{"b evicts a", alloc, "application/json", b, "miss", `"cached":false`, 1, 1},
		{"a, memo hit, evicted", alloc, "application/json", a, "miss", `"cached":false`, 1, 1},
		{"a again", alloc, "application/json", a, "hit", `"cached":true`, 1, 1},
		{"a, binary", alloc, BinaryContentType, string(aBin), "hit", `"cached":true`, 1, 1},
		{"a, no_cache", alloc, "application/json",
			`{"no_cache":true,"source":` + jsonSource(smallFunc) + `}`, "miss", `"cached":false`, 0, 0},
		{"batch of a and an empty item", ts.URL + "/v1/batch", "application/json",
			`{"functions":[` + jsonSource(smallFunc) + `,""]}`, "", `"cached":true`, 1, 1},
	}
	for _, st := range steps {
		before, servedBefore := lookups(s), tierServed(s)
		code, cache, reply := postRaw(t, st.url, st.contentType, st.body)
		if code != http.StatusOK || cache != st.cache || !strings.Contains(reply, st.cached) {
			t.Fatalf("%s: status %d, cache %q, want 200 %q with %s: %s",
				st.name, code, cache, st.cache, st.cached, reply)
		}
		if d := lookups(s) - before; d != st.lookups {
			t.Errorf("%s: hits+misses moved by %d, want %d", st.name, d, st.lookups)
		}
		if d := tierServed(s) - servedBefore; d != st.served {
			t.Errorf("%s: tier-served moved by %d, want %d", st.name, d, st.served)
		}
	}
}

// Neither a no_cache body nor one under a trusted key header enters the
// memo: the first must never probe the cache, and the second names an
// identity its bytes were never checked against.
func TestMemoSkipsNoCacheAndTrustedBodies(t *testing.T) {
	s, ts := newTestServer(t, Config{TrustKeyHeader: true})
	canon, _, err := NewKeyResolver(0).ResolveText(smallFunc)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"source":` + jsonSource(smallFunc) + `}`
	for i := 0; i < 2; i++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/allocate", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(KeyHeader, EncodeKeyHeader(canon))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trusted request %d: status %d", i, resp.StatusCode)
		}
		code, _, reply := postRaw(t, ts.URL+"/v1/allocate", "application/json",
			`{"no_cache":true,"source":`+jsonSource(distinctFunc(i))+`}`)
		if code != http.StatusOK {
			t.Fatalf("no_cache request %d: status %d: %s", i, code, reply)
		}
	}
	if n := s.keys.memo.Len(); n != 0 {
		t.Errorf("memo holds %d entries, want 0", n)
	}
	if n := s.cache.Len(); n != 1 {
		t.Errorf("cache holds %d entries, want 1 (the trusted request's)", n)
	}
}

// A draining server refuses a memo hit with 503, as it refuses every
// other request, though the entry it names is resident.
func TestMemoHitWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"source":` + jsonSource(smallFunc) + `}`
	for _, want := range []string{"miss", "hit"} {
		if code, cache, reply := postRaw(t, ts.URL+"/v1/allocate", "application/json", body); code != http.StatusOK || cache != want {
			t.Fatalf("status %d, cache %q, want 200 %q: %s", code, cache, want, reply)
		}
	}
	s.StartDrain()
	code, _, reply := postRaw(t, ts.URL+"/v1/allocate", "application/json", body)
	var e ErrorResponse
	if err := json.Unmarshal([]byte(reply), &e); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || e.Error != "server draining" {
		t.Fatalf("draining memo hit: status %d, %q", code, reply)
	}
}

// The stored reply of a hit, and the reply a miss builds from it, are
// what encoding the reply struct gives.
func TestEntryRepliesMatchEncoder(t *testing.T) {
	stats := statsJSON{Allocator: "pref-full", Rounds: 2, MovesBefore: 3}
	for _, tc := range []struct {
		text, tier string
		cycles     float64
	}{
		{"func f() {\n  ret \"cached\":true <&>\n}\n", "", 0},
		{"func g() {}\n", tierFast, 12.5},
		{"", tierFull, 1e21},
		// Names and symbols may hold any byte: quotes, backslashes,
		// control bytes, DEL, invalid UTF-8, multibyte runes and the
		// line separators encoding/json escapes.
		{"func \"a\\b\"(v0) {\n\t\r\b\f\x00\x1f\x7f\n}\n", "", 0},
		{"func \xff\xfe@\xe2\x80 \xe2\x80\xa8\u2029 é世\xc3(\n", tierFast, 3},
	} {
		e := newEntry([]byte(tc.text), "d", stats, tc.tier, tc.cycles)
		for _, cached := range []bool{true, false} {
			var got strings.Builder
			e.writeObject(&got, cached)
			want := render(new(bytes.Buffer), allocateResponse{Function: tc.text, Digest: "d", Stats: stats,
				Cached: cached, Tier: tc.tier, Cycles: tc.cycles})
			if got.String() != string(want) {
				t.Errorf("cached=%v:\n got %s\nwant %s", cached, got.String(), want)
			}
		}
	}
	// Random bytes, weighted toward the ones that need escaping.
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("a\n\"\\\x00\x1f\x7f\x80\xbf\xc3\xa9\xe2\x80\xa8\xf0\x9f\x98\x80\xff<&")
	for i := 0; i < 2000; i++ {
		text := make([]byte, rng.Intn(24))
		for j := range text {
			text[j] = alphabet[rng.Intn(len(alphabet))]
		}
		want := render(new(bytes.Buffer), allocateResponse{Function: string(text), Digest: "d", Stats: stats, Cached: true})
		if got := newEntry(text, "d", stats, "", 0).Reply; !bytes.Equal(got, want) {
			t.Fatalf("text %q:\n got %s\nwant %s", text, got, want)
		}
	}
}

// A trusted key header names a request's identity even when the memo
// knows its body: the header, not the memo, picks the entry served.
func TestTrustedKeyBeatsMemo(t *testing.T) {
	_, ts := newTestServer(t, Config{TrustKeyHeader: true})
	alloc := ts.URL + "/v1/allocate"
	a := `{"source":` + jsonSource(smallFunc) + `}`
	postRaw(t, alloc, "application/json", a) // the memo learns a
	_, _, reply := postRaw(t, alloc, "application/json", `{"source":`+jsonSource(distinctFunc(1))+`}`)
	var b allocateResponse
	if err := json.Unmarshal([]byte(reply), &b); err != nil {
		t.Fatal(err)
	}
	canonB, _, err := NewKeyResolver(0).ResolveText(distinctFunc(1))
	if err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodPost, alloc, strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(KeyHeader, EncodeKeyHeader(canonB))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got allocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached || got.Digest != b.Digest {
		t.Fatalf("served cached=%v digest %s, want the header's entry %s", got.Cached, got.Digest, b.Digest)
	}
}
