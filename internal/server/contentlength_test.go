package server

import (
	"net/http"
	"strconv"
	"testing"

	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// checkContentLength requires a 200 /v1/allocate reply to carry a
// Content-Length equal to its body length, no Transfer-Encoding, and
// the given cache header.
func checkContentLength(t *testing.T, name string, resp *http.Response, body []byte, cache string) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d: %s", name, resp.StatusCode, body)
	}
	if got := resp.Header.Get(CacheHeader); got != cache {
		t.Errorf("%s: cache header %q, want %q", name, got, cache)
	}
	if got, want := resp.Header.Get("Content-Length"), strconv.Itoa(len(body)); got != want {
		t.Errorf("%s: Content-Length %q, body %s bytes", name, got, want)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: ContentLength %d, TransferEncoding %v, body %d bytes", name, resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// largeSources returns two distinct suite functions whose replies are
// well past net/http's 2 KiB chunking threshold.
func largeSources(t *testing.T) (string, string) {
	t.Helper()
	funcs := workload.Generate(workload.Benchmarks()[0], target.UsageModel(16))
	if len(funcs) < 2 {
		t.Fatal("profile has fewer than two functions")
	}
	a, b := funcs[0].String(), funcs[1].String()
	if len(a) < 4096 || len(b) < 4096 {
		t.Fatalf("sources of %d and %d bytes are too small to be chunked", len(a), len(b))
	}
	return a, b
}

// TestAllocateContentLength checks that miss, hit and no_cache replies,
// to JSON and binary requests, with and without the tier, are sent with
// a Content-Length rather than chunked.
func TestAllocateContentLength(t *testing.T) {
	textSrc, binSrc := largeSources(t)
	_, bin := mustEncode(t, binSrc)
	for _, tier := range []bool{false, true} {
		_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 16, Tier: tier})
		url := ts.URL + "/v1/allocate"
		name := func(s string) string { return s + " tier=" + strconv.FormatBool(tier) }

		resp, body := postJSON(t, url, AllocateRequest{Source: textSrc})
		checkContentLength(t, name("json miss"), resp, body, "miss")
		resp, body = postJSON(t, url, AllocateRequest{Source: textSrc})
		checkContentLength(t, name("json hit"), resp, body, "hit")
		req := AllocateRequest{Source: textSrc}
		req.NoCache = true
		resp, body = postJSON(t, url, req)
		checkContentLength(t, name("json no_cache"), resp, body, "miss")

		resp, body = postBinary(t, url, "", bin)
		checkContentLength(t, name("binary miss"), resp, body, "miss")
		resp, body = postBinary(t, url, "", bin)
		checkContentLength(t, name("binary hit"), resp, body, "hit")
		resp, body = postBinary(t, url, "no_cache=true", bin)
		checkContentLength(t, name("binary no_cache"), resp, body, "miss")
	}
}
