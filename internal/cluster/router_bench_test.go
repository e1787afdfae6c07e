package cluster

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"prefcolor/internal/server"
)

// benchFunc builds a mid-sized function (~3n instructions) so the
// routing benchmarks below measure a realistic JSON body, not a toy.
func benchFunc(n int) string {
	var b strings.Builder
	b.WriteString("func routed(v0) {\nb0:\n")
	v := 0
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", v+1, v, v)
		fmt.Fprintf(&b, "  v%d = addimm v%d, %d\n", v+2, v+1, i)
		fmt.Fprintf(&b, "  v%d = mul v%d, v%d\n", v+3, v+2, v+1)
		v += 3
	}
	fmt.Fprintf(&b, "  ret v%d\n}\n", v)
	return b.String()
}

func benchRouter(b *testing.B) *Router {
	b.Helper()
	rt, err := New(Config{
		Replicas:       []ReplicaConfig{{ID: "r0", BaseURL: "http://unused"}},
		HealthInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	return rt
}

// BenchmarkRouterRouteJSON pins the routing-decision cost for a repeat
// JSON allocate body — the router's steady state on a production
// workload. "memo" is the shipped path (raw-body memo hit: one hash,
// one map probe); "reparse" disables the memo and pays the full JSON
// parse + IR parse every time.
func BenchmarkRouterRouteJSON(b *testing.B) {
	body, _ := json.Marshal(server.AllocateRequest{Source: benchFunc(40)})
	b.Logf("body: %d bytes", len(body))
	req := httptest.NewRequest("POST", "/v1/allocate", nil)
	req.Header.Set("Content-Type", "application/json")

	b.Run("memo", func(b *testing.B) {
		rt := benchRouter(b)
		if _, _, err := rt.keys.ResolveAllocate(req, body); err != nil { // warm the memo
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := rt.keys.ResolveAllocate(req, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reparse", func(b *testing.B) {
		rt := benchRouter(b)
		rt.keys = server.NewKeyResolver(0) // 0 entries: every resolve parses
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := rt.keys.ResolveAllocate(req, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
