package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	"prefcolor/internal/ir"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// discardWriter is a ResponseWriter that keeps only the status code,
// so a handler benchmark measures the handler, not a recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// BenchmarkServeHit measures one /v1/allocate cache hit through the
// daemon's handler: a tier daemon with 64 suite functions cached,
// posted as JSON bodies in turn. No network is involved; what is left
// is reading the body, resolving its key, the cache lookup and the
// reply.
func BenchmarkServeHit(b *testing.B) {
	s := New(Config{Tier: true})
	defer s.Close()
	h := s.Handler()

	var bodies [][]byte
	for _, p := range workload.Benchmarks() {
		for _, f := range workload.Generate(p, target.UsageModel(16)) {
			if len(bodies) == 64 {
				break
			}
			body, err := json.Marshal(AllocateRequest{Source: f.String()})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}

	u := &url.URL{Path: "/v1/allocate"}
	rd := bytes.NewReader(nil)
	rc := io.NopCloser(rd)
	w := &discardWriter{h: http.Header{}}
	serve := func(body []byte) {
		rd.Reset(body)
		clear(w.h)
		w.code = http.StatusOK
		req := &http.Request{Method: http.MethodPost, URL: u, Header: http.Header{},
			Body: rc, ContentLength: int64(len(body))}
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(w, req)
	}
	for _, body := range bodies {
		serve(body)
		serve(body)
		if w.code != http.StatusOK || w.h.Get(CacheHeader) != "hit" {
			b.Fatalf("warm-up: status %d, cache %q", w.code, w.h.Get(CacheHeader))
		}
	}

	// Let the upgrades the warm-up queued finish, so the timed hits
	// share no CPU with background pref-full runs.
	for {
		depth, _ := s.upgradeDepth()
		s.upgrades.pmu.Lock()
		pending := len(s.upgrades.pending)
		s.upgrades.pmu.Unlock()
		if depth == 0 && pending == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
	b.StopTimer()
	if w.h.Get(CacheHeader) != "hit" {
		b.Fatalf("last request: cache %q, want hit", w.h.Get(CacheHeader))
	}
}

// BenchmarkServeCold measures one cache-bypassing /v1/allocate through
// the daemon's handler: binary IR with no_cache set, the suite's
// functions at k = 16 posted in turn, so every request decodes,
// allocates with pref-full and renders its reply. No network is
// involved.
func BenchmarkServeCold(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()

	var bodies [][]byte
	for _, p := range workload.Benchmarks() {
		for _, f := range workload.Generate(p, target.UsageModel(16)) {
			bodies = append(bodies, ir.EncodeBinary(f))
		}
	}

	u := &url.URL{Path: "/v1/allocate", RawQuery: "no_cache=true"}
	rd := bytes.NewReader(nil)
	rc := io.NopCloser(rd)
	w := &discardWriter{h: http.Header{}}
	serve := func(body []byte) {
		rd.Reset(body)
		clear(w.h)
		w.code = http.StatusOK
		req := &http.Request{Method: http.MethodPost, URL: u, Header: http.Header{},
			Body: rc, ContentLength: int64(len(body))}
		req.Header.Set("Content-Type", BinaryContentType)
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	for _, body := range bodies {
		serve(body)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}
