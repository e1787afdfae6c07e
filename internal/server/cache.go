package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Key is the content address of one allocation request: the
// SHA-256 of the function's *canonical binary encoding* plus every
// setting that can steer the allocation outcome (machine model and
// register count, allocator name, pre-allocation optimization, driver
// options). Keying on ir.EncodeBinary bytes rather than raw request
// bytes means a textual and a binary request for the same function —
// comments, whitespace, and wire format notwithstanding — share one
// LRU entry. Telemetry settings are deliberately excluded —
// collection observes without steering, so instrumented and quiet
// runs share cache entries.
type Key [sha256.Size]byte

// KeyFor derives the cache key from the canonical-encoding hash
// (sha256 over ir.EncodeBinary of the function) and the normalized
// request spec.
func KeyFor(canonHash [sha256.Size]byte, spec Spec) Key {
	return sha256.Sum256([]byte(fmt.Sprintf(
		"src=%x|machine=%s|k=%d|alloc=%s|optimize=%t|remat=%t|bls=%t|rounds=%d",
		canonHash, spec.Machine, spec.K, spec.Allocator,
		spec.Optimize, spec.Rematerialize, spec.BlockLocalSpills, spec.MaxRounds)))
}

// entry is one cached allocation outcome, held as the reply a cache
// hit writes. Entries are immutable after insertion, so readers share
// them without copying — a tier upgrade swaps the whole entry via Add,
// never mutates one in place.
type entry struct {
	// Reply is the /v1/allocate reply object of a hit ("cached":true,
	// no trailing newline), rendered once when the entry is made; the
	// function text lives only here. CachedAt is the offset of that
	// "true", which a miss reply writes as "false".
	Reply    []byte
	CachedAt int
	Tier     string  // tier mode: "fast" or "full"; else empty
	Cycles   float64 // tier mode: perfmodel cycle estimate of the function

	// buf, set only on a transient entry, is the pooled buffer Reply
	// lies in; release returns it.
	buf *bytes.Buffer
}

// replyBufs recycles the buffers replies are rendered into.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledReply bounds the buffers release returns to replyBufs, so a
// rare huge reply does not stay pinned in the pool.
const maxPooledReply = 1 << 20

// newEntry renders the reply of one allocation result into an entry
// the cache may keep: its Reply is an exact-size copy of its own.
func newEntry(text []byte, digest string, stats statsJSON, tier string, cycles float64) *entry {
	e := newTransientEntry(text, digest, stats, tier, cycles)
	reply := bytes.Clone(e.Reply)
	e.release()
	e.Reply = reply
	return e
}

// newTransientEntry is newEntry for a reply that is written once and
// dropped (a no_cache request): Reply lies in a pooled buffer, so the
// request renders its reply without allocating one, and release hands
// the buffer back after the write. The reply is what render writes for
// the allocateResponse with text as its Function, but the text goes
// from its bytes straight into the buffer.
func newTransientEntry(text []byte, digest string, stats statsJSON, tier string, cycles float64) *entry {
	b := replyBufs.Get().(*bytes.Buffer)
	b.Reset()
	b.WriteString(`{"function":`)
	b.Write(appendJSONString(b.AvailableBuffer(), text))
	// The rest of the object is the encoder's, minus the empty
	// function field it writes first.
	at := b.Len()
	render(b, allocateResponse{Digest: digest, Stats: stats, Cached: true, Tier: tier, Cycles: cycles})
	all := b.Bytes()
	reply := bytes.TrimSuffix(all[:at+copy(all[at:], all[at+len(`{"function":""`):])], []byte("\n"))
	// Quotes inside JSON strings are escaped, so these bytes occur only
	// as the field itself.
	cachedAt := at + bytes.Index(reply[at:], []byte(`"cached":true`)) + len(`"cached":`)
	return &entry{Reply: reply, CachedAt: cachedAt, Tier: tier, Cycles: cycles, buf: b}
}

// appendJSONString appends s to dst as a JSON string, byte for byte as
// encoding/json writes it with HTML escaping off. Function text is
// printable ASCII and newlines, except for names and call symbols,
// which may hold any byte. Printable ASCII other than '"' and '\\'
// passes through and a newline is written as \n, as encoding/json
// does; each run of other bytes, which holds every byte of the UTF-8
// sequences it meets, goes through encoding/json itself.
func appendJSONString(dst, s []byte) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		j := i + 1
		switch c := s[i]; {
		case jsonPlain(c):
			for j < len(s) && jsonPlain(s[j]) {
				j++
			}
			dst = append(dst, s[i:j]...)
		case c == '\n':
			dst = append(dst, `\n`...)
		default:
			for j < len(s) && !jsonPlain(s[j]) && s[j] != '\n' {
				j++
			}
			q, _ := json.Marshal(string(s[i:j])) // a string always marshals
			dst = append(dst, q[1:len(q)-1]...)
		}
		i = j
	}
	return append(dst, '"')
}

// jsonPlain reports whether encoding/json writes c unescaped in a
// string with HTML escaping off.
func jsonPlain(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\'
}

// release returns a transient entry's buffer to the pool; the entry
// must not be written after it. On a kept entry it does nothing.
func (e *entry) release() {
	if e.buf == nil {
		return
	}
	if e.buf.Cap() <= maxPooledReply {
		replyBufs.Put(e.buf)
	}
	e.buf, e.Reply = nil, nil
}

// replyLen is the length of the reply writeEntry writes for e: the
// object, "false" in place of "true" on a miss, and a newline.
func (e *entry) replyLen(cached bool) int {
	n := len(e.Reply) + len("\n")
	if !cached {
		n += len("false") - len("true")
	}
	return n
}

// writeObject writes e's reply object with its cached field set to
// cached: the stored bytes for a hit, and for a miss the same bytes
// with "false" spliced in.
func (e *entry) writeObject(w io.Writer, cached bool) {
	if cached {
		_, _ = w.Write(e.Reply)
		return
	}
	_, _ = w.Write(e.Reply[:e.CachedAt])
	_, _ = io.WriteString(w, "false")
	_, _ = w.Write(e.Reply[e.CachedAt+len("true"):])
}

// flightGroup deduplicates concurrent identical computations: the
// first caller for a key becomes the leader and computes; callers that
// arrive while the leader is in flight just wait for its result. Each
// key computes at most once per flight — the cache, not the group,
// provides cross-flight reuse.
type flightGroup struct {
	mu     sync.Mutex
	flight map[Key]*flightCall

	shared int64 // waiters served by another caller's computation
}

type flightCall struct {
	done chan struct{} // closed when val/err are set
	val  *entry
	err  error
	code int // HTTP status for err; 0 when val is set
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flight: make(map[Key]*flightCall)}
}

// join returns the in-flight call for key, creating one when absent;
// leader reports whether this caller must compute and complete it.
func (g *flightGroup) join(key Key) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.flight[key]; ok {
		g.shared++
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.flight[key] = c
	return c, true
}

// complete publishes the leader's outcome and retires the flight, so
// later callers start fresh (hitting the cache on success).
func (g *flightGroup) complete(key Key, c *flightCall, val *entry, err error, code int) {
	g.mu.Lock()
	delete(g.flight, key)
	g.mu.Unlock()
	c.finish(val, code, err)
}

// finish publishes an outcome to c's waiters.
func (c *flightCall) finish(val *entry, code int, err error) {
	c.val, c.err, c.code = val, err, code
	close(c.done)
}

// wait returns c's outcome once it completes. A caller whose reqCtx
// ends first gives up alone: the job runs on, so other waiters (and
// the cache) still benefit.
func (c *flightCall) wait(reqCtx context.Context) (*entry, int, error) {
	select {
	case <-c.done:
	case <-reqCtx.Done():
		return nil, StatusClientGone, reqCtx.Err()
	}
	if c.err != nil {
		return nil, c.code, c.err
	}
	return c.val, 0, nil
}

// Shared returns the number of calls that piggybacked on another
// caller's computation.
func (g *flightGroup) Shared() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.shared
}
