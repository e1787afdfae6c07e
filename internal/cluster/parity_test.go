package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"prefcolor/internal/ir"
	"prefcolor/internal/server"
)

// TestRouterReplicaParity sends the same bad requests to a router over
// one replica and to the replica directly: both front ends decode with
// the same code, so each request must get the same status and the same
// error reply from both.
func TestRouterReplicaParity(t *testing.T) {
	reps := startReplicas(t, 1, server.Config{Workers: 2, QueueSize: 16, CacheEntries: 64})
	_, front := newTestRouter(t, reps, Config{})

	parse := func(i int) *ir.Func {
		f, err := ir.Parse(distinctFunc(i))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	frame := func(i int) []byte { return ir.AppendBinaryFrame(nil, parse(i)) }
	var overLimit bytes.Buffer
	var tooMany []string
	for i := 0; i <= server.MaxBatch; i++ {
		overLimit.Write(frame(i))
		tooMany = append(tooMany, distinctFunc(i))
	}
	tooManyJSON, _ := json.Marshal(server.BatchRequest{Functions: tooMany})
	good, enc := frame(0), ir.EncodeBinary(parse(0))
	truncated := append(frame(1), good[:len(good)-3]...)
	// Five good frames, then a frame whose payload lacks the magic.
	var lateBadMagic []byte
	for i := 10; i < 15; i++ {
		lateBadMagic = append(lateBadMagic, frame(i)...)
	}
	bad := frame(15)
	lateBadMagic = append(lateBadMagic, bytes.Replace(bad, []byte("PGIR"), []byte("XGIR"), 1)...)
	src, _ := json.Marshal(distinctFunc(0))

	const js, bin = "application/json", server.BinaryContentType
	cases := []struct {
		name, path, query, contentType string
		body                           []byte
	}{
		{"bad JSON", "/v1/allocate", "", js, []byte(`{"source":`)},
		{"empty source", "/v1/allocate", "", js, []byte(`{"source":""}`)},
		{"IR parse error", "/v1/allocate", "", js, []byte(`{"source":"func broken(... xxx"}`)},
		{"bad magic", "/v1/allocate", "", bin, []byte("not binary ir at all")},
		{"empty binary body", "/v1/allocate", "", bin, nil},
		{"bad query value", "/v1/allocate", "k=banana", bin, enc},
		{"bad machine", "/v1/allocate", "", js, []byte(`{"machine":"vax","source":` + string(src) + `}`)},
		{"bad allocator", "/v1/allocate", "", js, []byte(`{"allocator":"nope","source":` + string(src) + `}`)},
		{"bad k", "/v1/allocate", "", js, []byte(`{"k":1,"source":` + string(src) + `}`)},
		{"bad k, binary", "/v1/allocate", "k=1", bin, enc},
		{"batch: bad JSON", "/v1/batch", "", js, []byte(`{"functions":`)},
		{"batch: bad allocator", "/v1/batch", "", js, []byte(`{"allocator":"nope","functions":[` + string(src) + `]}`)},
		{"batch: bad query value", "/v1/batch", "max_rounds=-", bin, good},
		{"empty batch", "/v1/batch", "", js, []byte(`{"functions":[]}`)},
		{"empty binary batch", "/v1/batch", "", bin, nil},
		{"batch over the limit", "/v1/batch", "", js, tooManyJSON},
		{"binary batch over the limit", "/v1/batch", "", bin, overLimit.Bytes()},
		{"truncated frame", "/v1/batch", "", bin, truncated},
		{"5 good frames, then a framed bad magic", "/v1/batch", "", bin, lateBadMagic},
	}
	post := func(base string, path, query, contentType string, body []byte) (int, string) {
		t.Helper()
		u := base + path
		if query != "" {
			u += "?" + query
		}
		resp, err := http.Post(u, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	for _, tc := range cases {
		rcode, rbody := post(front.URL, tc.path, tc.query, tc.contentType, tc.body)
		dcode, dbody := post(reps[0].ts.URL, tc.path, tc.query, tc.contentType, tc.body)
		if rcode != dcode || rbody != dbody {
			t.Errorf("%s: router %d %q, replica %d %q", tc.name, rcode, rbody, dcode, dbody)
		}
		if rcode != http.StatusBadRequest || !strings.HasPrefix(rbody, `{"error":`) {
			t.Errorf("%s: %d %q, want a 400 error reply", tc.name, rcode, rbody)
		}
	}
	// A refused request computes and caches nothing on the replica,
	// even when the refusal comes from a batch's last frame.
	resp, err := http.Get(reps[0].ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"prefgcd_cache_misses_total 0\n", "prefgcd_cache_entries 0\n"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("replica metrics lack %q", strings.TrimSpace(want))
		}
	}
}
