package server

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"

	"prefcolor/internal/ir"
	"prefcolor/internal/lru"
)

// KeyResolver maps request payloads — textual or binary IR — to the
// canonical content hash the cache key is built from: sha256 over the
// function's ir.EncodeBinary encoding. It memoizes raw-bytes→hash so
// repeat payloads resolve without re-parsing; the cluster router uses
// one to route a request to the shard that owns its cache entry without
// disagreeing with the replica about what "the same function" means.
//
// The memo is an optimization only — a missing or evicted entry just
// costs one parse — and its IR entries are spec-independent, since the
// canonicalization of a function does not depend on how it will be
// allocated. A resolver is its process's one request memo: beside IR
// payloads it maps whole JSON /v1/allocate bodies, spec included, to
// the canonical hash and the cache key they resolve to (see
// ResolveAllocate).
type KeyResolver struct {
	memo *lru.Cache[[sha256.Size]byte, resolution] // memoKey -> resolution
}

// resolution is what the memo maps raw bytes to: the canonical hash of
// their function and, for a JSON /v1/allocate body, the cache key.
type resolution struct {
	canon [sha256.Size]byte
	key   Key
}

// NewKeyResolver builds a resolver whose raw-bytes memo holds up to
// entries mappings (entries <= 0 disables memoization; every call
// then parses or decodes).
func NewKeyResolver(entries int) *KeyResolver {
	return &KeyResolver{memo: lru.New[[sha256.Size]byte, resolution](entries)}
}

// Wire forms that separate memo keys: the same bytes mean different
// things as IR text, as binary IR and as a JSON /v1/allocate body.
const (
	formText   = 't'
	formBinary = 'b'
	formJSON   = 'j'
)

// memoKey is the memo's key for raw bytes b arriving in wire form form.
func memoKey(form byte, b []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte{form, 0})
	h.Write(b)
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// resolve canonicalizes in: it ensures in.canonHash holds the sha256
// of the function's canonical binary encoding, parsing or decoding
// the input if no memoized mapping exists yet. On a memo hit the
// input is left unparsed — the steady state stays parse-free. The
// returned int is an HTTP status code for the error, when non-nil.
func (kr *KeyResolver) resolve(in *srcInput) (int, error) {
	if in.canonKnown {
		// A trusted router already resolved this payload's identity
		// (X-Prefgcd-Key), or the handler did; the cache-hit path
		// stays parse-free.
		return 0, nil
	}
	if in.f != nil && in.binary != nil {
		// A batch frame, already decoded; the bytes are its
		// canonical re-encoding.
		in.enc = in.binary
		in.canonHash = sha256.Sum256(in.binary)
		return 0, nil
	}
	var raw [sha256.Size]byte
	if in.binary != nil {
		raw = memoKey(formBinary, in.binary)
	} else {
		raw = memoKey(formText, []byte(in.text))
	}
	if res, ok := kr.memo.Get(raw); ok {
		in.canonHash = res.canon
		return 0, nil
	}
	f, code, err := in.decode()
	if err != nil {
		return code, err
	}
	in.f, in.enc = f, ir.EncodeBinary(f)
	in.canonHash = sha256.Sum256(in.enc)
	kr.memo.Add(raw, resolution{canon: in.canonHash})
	return 0, nil
}

// ResolveText returns the canonical content hash for a textual IR
// payload. The error, when non-nil, is a parse failure; the int is
// the HTTP status a server would answer it with.
func (kr *KeyResolver) ResolveText(src string) ([32]byte, int, error) {
	in := srcInput{text: src}
	if code, err := kr.resolve(&in); err != nil {
		return [32]byte{}, code, err
	}
	return in.canonHash, 0, nil
}

// ResolveFunc returns the canonical content hash for one batch
// function; a binary frame, already decoded, is hashed without a memo
// probe.
func (kr *KeyResolver) ResolveFunc(f *BatchFunc) ([32]byte, int, error) {
	code, err := kr.resolve(&f.in)
	return f.in.canonHash, code, err
}

// Response headers a replica stamps so routers and load generators can
// attribute work without parsing response bodies.
const (
	// ReplicaHeader names the replica that served a response (set only
	// when Config.ReplicaID is non-empty).
	ReplicaHeader = "X-Prefgcd-Replica"

	// CacheHeader reports how /v1/allocate served a 200: "hit" from
	// the result cache, "miss" computed fresh.
	CacheHeader = "X-Prefgcd-Cache"

	// TierHeader reports which tier served a 200 in tier mode: "fast"
	// (linear-scan, upgrade pending) or "full" (the request's own
	// allocator).
	TierHeader = "X-Prefgcd-Tier"

	// KeyHeader carries a function's canonical content hash
	// (hex-encoded sha256 over its ir.EncodeBinary form) from a router
	// that has already resolved it. A replica honors it only with
	// Config.TrustKeyHeader on.
	KeyHeader = "X-Prefgcd-Key"
)

// EncodeKeyHeader renders a canonical content hash as the KeyHeader
// value a router forwards.
func EncodeKeyHeader(canon [32]byte) string { return hex.EncodeToString(canon[:]) }

// DecodeKeyHeader parses a KeyHeader value; ok is false for an absent
// or malformed header (the replica then resolves the body itself).
func DecodeKeyHeader(v string) (canon [32]byte, ok bool) {
	if len(v) != 2*len(canon) {
		return canon, false
	}
	b, err := hex.DecodeString(v)
	if err != nil {
		return canon, false
	}
	copy(canon[:], b)
	return canon, true
}

// DrainingStatus is the HTTP status a draining replica answers new
// allocation work with; routers treat it as "hand this request to
// another shard", not as a client-visible failure.
const DrainingStatus = http.StatusServiceUnavailable
