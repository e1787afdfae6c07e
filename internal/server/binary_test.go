package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"prefcolor/internal/ir"
)

// postBinary sends body with the binary IR content type and the given
// query string (no leading "?").
func postBinary(t *testing.T, url, query string, body []byte) (*http.Response, []byte) {
	t.Helper()
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Post(url, BinaryContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func mustEncode(t *testing.T, src string) (*ir.Func, []byte) {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f, ir.EncodeBinary(f)
}

// A binary /v1/allocate request must produce exactly the response a
// textual request for the same function produces, and the two must
// share one cache entry: whichever arrives second is a hit.
func TestAllocateBinaryMatchesTextAndSharesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	_, bin := mustEncode(t, smallFunc)

	resp, body := postBinary(t, ts.URL+"/v1/allocate", "", bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary status %d: %s", resp.StatusCode, body)
	}
	var binOut allocateResponse
	if err := json.Unmarshal(body, &binOut); err != nil {
		t.Fatal(err)
	}
	if binOut.Cached {
		t.Error("first (binary) request reported cached")
	}

	resp, body = postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: smallFunc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text status %d: %s", resp.StatusCode, body)
	}
	var txtOut allocateResponse
	if err := json.Unmarshal(body, &txtOut); err != nil {
		t.Fatal(err)
	}
	if !txtOut.Cached {
		t.Error("textual request for the same function missed the cache; text and binary keys diverge")
	}
	if txtOut.Digest != binOut.Digest || txtOut.Function != binOut.Function {
		t.Error("text and binary requests returned different allocations")
	}
	if n := s.cache.Len(); n != 1 {
		t.Errorf("cache holds %d entries, want 1 shared entry", n)
	}
}

// Spec settings ride in the query for binary requests.
func TestAllocateBinaryQuerySpec(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, bin := mustEncode(t, smallFunc)

	resp, body := postBinary(t, ts.URL+"/v1/allocate", "machine=x86&k=8&allocator=chaitin", bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out allocateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats.Allocator != "chaitin" {
		t.Errorf("allocator = %q, want chaitin from query", out.Stats.Allocator)
	}

	resp, body = postBinary(t, ts.URL+"/v1/allocate", "k=banana", bin)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

// Garbage with the binary content type is a 400, not a hang or a 500.
func TestAllocateBinaryRejectsGarbage(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for name, body := range map[string][]byte{
		"empty":     nil,
		"bad magic": []byte("not binary ir at all"),
		"truncated": ir.EncodeBinary(mustParse(t, smallFunc))[:10],
	} {
		resp, out := postBinary(t, ts.URL+"/v1/allocate", "", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, out)
		}
	}
}

func mustParse(t *testing.T, src string) *ir.Func {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// A binary batch streams frames and returns index-aligned results that
// match the textual batch for the same functions.
func TestBatchBinary(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	var sources []string
	var wire []byte
	for i := 0; i < 5; i++ {
		src := distinctFunc(i)
		sources = append(sources, src)
		wire = ir.AppendBinaryFrame(wire, mustParse(t, src))
	}

	resp, body := postBinary(t, ts.URL+"/v1/batch", "", wire)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch status %d: %s", resp.StatusCode, body)
	}
	var binOut batchResponse
	if err := json.Unmarshal(body, &binOut); err != nil {
		t.Fatal(err)
	}
	if len(binOut.Results) != len(sources) {
		t.Fatalf("binary batch returned %d results, want %d", len(binOut.Results), len(sources))
	}

	resp, body = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Functions: sources})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text batch status %d: %s", resp.StatusCode, body)
	}
	var txtOut batchResponse
	if err := json.Unmarshal(body, &txtOut); err != nil {
		t.Fatal(err)
	}
	for i := range binOut.Results {
		if binOut.Results[i].Error != "" {
			t.Errorf("result %d failed: %s", i, binOut.Results[i].Error)
			continue
		}
		if binOut.Results[i].Digest != txtOut.Results[i].Digest {
			t.Errorf("result %d: binary digest differs from text digest", i)
		}
	}
}

// A corrupt frame mid-stream fails the whole batch with its position.
func TestBatchBinaryCorruptFrame(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	wire := ir.AppendBinaryFrame(nil, mustParse(t, distinctFunc(0)))
	wire = append(wire, 0x05, 'j', 'u', 'n', 'k', '!') // framed garbage

	resp, body := postBinary(t, ts.URL+"/v1/batch", "", wire)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("frame 1")) {
		t.Errorf("error %s does not name the corrupt frame", body)
	}
}

// no_cache requests never read or write the cache: two identical
// requests both compute, and the result never lands in the LRU.
func TestNoCacheBypass(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := AllocateRequest{Source: smallFunc}
	req.NoCache = true

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/allocate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out allocateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached {
			t.Errorf("request %d: no_cache request reported cached", i)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries after no_cache requests, want 0", n)
	}

	// A cached entry must not leak into a no_cache request either.
	resp, _ := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: smallFunc})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("warm-up request failed")
	}
	resp, body := postJSON(t, ts.URL+"/v1/allocate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out allocateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Error("no_cache request served from cache after warm-up")
	}
}

// The binary query path accepts no_cache too (the loadgen cold mode).
func TestNoCacheBinaryQuery(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	_, bin := mustEncode(t, smallFunc)
	resp, body := postBinary(t, ts.URL+"/v1/allocate", "no_cache=true", bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries, want 0", n)
	}
}
