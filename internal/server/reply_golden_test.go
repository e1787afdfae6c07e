package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"prefcolor/internal/ir"
)

// pressureFunc keeps five values live at once, so at k=3 it cannot
// allocate in a single round.
const pressureFunc = `func press(v0) {
b0:
  v1 = addimm v0, 1
  v2 = addimm v0, 2
  v3 = addimm v0, 3
  v4 = addimm v0, 4
  v5 = add v1, v2
  v6 = add v3, v4
  v7 = add v5, v6
  v8 = add v7, v1
  v9 = add v8, v2
  v10 = add v9, v3
  v11 = add v10, v4
  ret v11
}
`

// replyLog records exchanges in the form the reply golden pins: status,
// the three headers a caller reads, and the body bytes as sent.
type replyLog struct {
	t   *testing.T
	buf strings.Builder
}

func (l *replyLog) post(name, url, contentType string, body []byte) *http.Response {
	l.t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		l.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		l.t.Fatal(err)
	}
	fmt.Fprintf(&l.buf, "== %s\nstatus %d\n", name, resp.StatusCode)
	for _, h := range []string{"Content-Type", CacheHeader, TierHeader} {
		fmt.Fprintf(&l.buf, "%s: %s\n", h, resp.Header.Get(h))
	}
	fmt.Fprintf(&l.buf, "body:\n%s", out)
	if !bytes.HasSuffix(out, []byte("\n")) {
		l.buf.WriteString("\n(no trailing newline)\n")
	}
	return resp
}

func (l *replyLog) json(name, url, body string) *http.Response {
	l.t.Helper()
	return l.post(name, url, "application/json", []byte(body))
}

func (l *replyLog) binary(name, url string, body []byte) *http.Response {
	l.t.Helper()
	return l.post(name, url, BinaryContentType, body)
}

// jsonSource renders src as a JSON string literal.
func jsonSource(src string) string {
	return fmt.Sprintf("%q", src)
}

// TestReplyGolden pins every reply byte and the Content-Type,
// X-Prefgcd-Cache and X-Prefgcd-Tier headers of /v1/allocate and
// /v1/batch: misses and hits, text and binary bodies, a plain daemon,
// a tier daemon's fast and full tiers, batches mixing hits, misses and
// item errors, and a draining server's refusal. Each exchange's
// disposition is fixed by the order of the requests, so the page is
// deterministic.
func TestReplyGolden(t *testing.T) {
	l := &replyLog{t: t}
	small := `{"source":` + jsonSource(smallFunc) + `}`
	_, smallBin := mustEncode(t, smallFunc)
	_, distinctBin := mustEncode(t, distinctFunc(1))

	// A daemon without tiers.
	s, ts := newTestServer(t, Config{Workers: 2})
	alloc, batch := ts.URL+"/v1/allocate", ts.URL+"/v1/batch"
	l.json("plain: json miss", alloc, small)
	l.json("plain: json hit", alloc, small)
	l.json("plain: json hit, other spelling", alloc,
		`{ "timeout_ms": 5000, "allocator": "pref-full", "source": `+jsonSource(smallFunc)+` }`)
	l.binary("plain: binary hit of the text entry", alloc, smallBin)
	l.binary("plain: binary miss", alloc, distinctBin)
	l.binary("plain: binary hit", alloc, distinctBin)
	l.json("plain: no_cache", alloc, `{"no_cache":true,"source":`+jsonSource(smallFunc)+`}`)
	l.json("plain: empty source", alloc, `{"source":""}`)
	l.json("plain: bad json", alloc, `{"source":`)
	l.json("plain: json batch", batch, `{"functions":[`+
		jsonSource(smallFunc)+`,`+jsonSource(distinctFunc(2))+`,"",`+jsonSource("func broken(")+`]}`)

	query := "?k=3&max_rounds=1"
	l.json("plain: k=3 json miss", alloc, `{"k":3,"max_rounds":1,"source":`+jsonSource(smallFunc)+`}`)
	var frames []byte
	for _, src := range []string{smallFunc, distinctFunc(3), pressureFunc} {
		frames = ir.AppendBinaryFrame(frames, mustParse(t, src))
	}
	l.binary("plain: binary batch", batch+query, frames)

	s.StartDrain()
	l.json("plain: draining", alloc, small)

	// A tier daemon whose upgrades never run: its entries stay fast.
	tf, tts := newTestServer(t, Config{Tier: true})
	tf.stopUpgrader()
	alloc = tts.URL + "/v1/allocate"
	l.json("tier: fast json miss", alloc, small)
	l.json("tier: fast json hit", alloc, small)
	l.binary("tier: fast binary hit", alloc, smallBin)
	l.json("tier: chaitin is not tiered", alloc, `{"allocator":"chaitin","source":`+jsonSource(smallFunc)+`}`)

	// A tier daemon whose upgrades run, and a request the fast path
	// fails on, which the full tier answers inline.
	_, uts := newTestServer(t, Config{Tier: true})
	alloc = uts.URL + "/v1/allocate"
	entryLoop := `{"k":2,"source":` + jsonSource(entryLoopFunc) + `}`
	l.json("tier: full fallback miss", alloc, entryLoop)
	l.json("tier: full fallback hit", alloc, entryLoop)
	upgradeBody := []byte(small)
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Post(alloc, "application/json", bytes.NewReader(upgradeBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get(TierHeader) == tierFull {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("entry never upgraded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	l.json("tier: upgraded full hit", alloc, small)

	checkGolden(t, "replies.golden", l.buf.String())
}
