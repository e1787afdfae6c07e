package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"prefcolor/internal/bench"
	"prefcolor/internal/ir"
	"prefcolor/internal/target"
)

// The request front end. The daemon's handlers and the cluster
// router's decode /v1/allocate and /v1/batch here, in both wire forms,
// so the two processes refuse the same requests with the same replies
// and agree on the key of every request they accept.

const (
	// MaxBodyBytes bounds a request body, and one binary batch frame.
	MaxBodyBytes = 4 << 20

	// MaxBatch bounds the functions of one /v1/batch request.
	MaxBatch = 256
)

// Spec is the allocation configuration shared by both
// endpoints, normalized for cache keying.
type Spec struct {
	Machine          string `json:"machine,omitempty"`   // ia64 (default), x86, s390
	K                int    `json:"k,omitempty"`         // register count, default 16
	Allocator        string `json:"allocator,omitempty"` // default pref-full
	Optimize         bool   `json:"optimize,omitempty"`  // SSA scalar opts before allocation
	Rematerialize    bool   `json:"rematerialize,omitempty"`
	BlockLocalSpills bool   `json:"block_local_spills,omitempty"`
	MaxRounds        int    `json:"max_rounds,omitempty"`

	// NoCache bypasses the result cache and single-flight join (the
	// admission queue still applies): the request parses or decodes
	// and allocates from scratch in a worker, and the result is not
	// stored. This is the harness's honest cold-path measurement mode
	// — canonical cache keys defeat comment-salting tricks — and it is
	// deliberately excluded from the cache key.
	NoCache bool `json:"no_cache,omitempty"`
}

// Normalize fills defaults and validates; it returns the machine the
// spec names. Routers normalize before keying so that a request with
// defaults spelled out and one with them omitted hash to the same
// shard — the same identity the replica's own cache uses.
func (spec *Spec) Normalize() (*target.Machine, error) {
	if spec.Machine == "" {
		spec.Machine = "ia64"
	}
	if spec.K == 0 {
		spec.K = 16
	}
	if spec.K < 2 || spec.K > 256 {
		return nil, fmt.Errorf("k must be in [2, 256], got %d", spec.K)
	}
	if spec.Allocator == "" {
		spec.Allocator = "pref-full"
	}
	if _, err := bench.NewAllocator(spec.Allocator); err != nil {
		return nil, err
	}
	if spec.MaxRounds < 0 {
		return nil, fmt.Errorf("max_rounds must be non-negative, got %d", spec.MaxRounds)
	}
	switch spec.Machine {
	case "ia64":
		return target.UsageModel(spec.K), nil
	case "x86":
		return target.X86Like(spec.K), nil
	case "s390":
		return target.S390Like(spec.K), nil
	}
	return nil, fmt.Errorf("unknown machine %q (want ia64, x86, or s390)", spec.Machine)
}

// AllocateRequest is the textual /v1/allocate body.
type AllocateRequest struct {
	Spec
	Source    string `json:"source"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// BatchRequest is the textual /v1/batch body; the spec and timeout
// apply to every function.
type BatchRequest struct {
	Spec
	Functions []string `json:"functions"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
}

// BinaryContentType selects the binary IR wire format on /v1/allocate
// (one ir.EncodeBinary function as the body) and /v1/batch (a sequence
// of ir.AppendBinaryFrame frames). Binary requests carry the
// allocation spec in query parameters, since the body is the function
// itself.
const BinaryContentType = "application/x-prefgcd-ir"

// IsBinaryRequest reports whether r's body is binary IR.
func IsBinaryRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == BinaryContentType || strings.HasPrefix(ct, BinaryContentType+";")
}

// SpecFromQuery builds the request spec for a binary request from the
// URL query: machine, k, allocator, optimize, rematerialize,
// block_local_spills, max_rounds, timeout_ms, no_cache.
func SpecFromQuery(r *http.Request) (Spec, int, error) {
	q := r.URL.Query()
	var spec Spec
	spec.Machine = q.Get("machine")
	spec.Allocator = q.Get("allocator")
	timeoutMS := 0
	for _, p := range []struct {
		name string
		dst  *int
	}{{"k", &spec.K}, {"max_rounds", &spec.MaxRounds}, {"timeout_ms", &timeoutMS}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return spec, 0, fmt.Errorf("query %s=%q: %w", p.name, v, err)
			}
			*p.dst = n
		}
	}
	for _, p := range []struct {
		name string
		dst  *bool
	}{
		{"optimize", &spec.Optimize}, {"rematerialize", &spec.Rematerialize},
		{"block_local_spills", &spec.BlockLocalSpills}, {"no_cache", &spec.NoCache},
	} {
		if v := q.Get(p.name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return spec, 0, fmt.Errorf("query %s=%q: %w", p.name, v, err)
			}
			*p.dst = b
		}
	}
	return spec, timeoutMS, nil
}

// sizedBodyMax bounds the buffer ReadRawBody allocates from a declared
// Content-Length before any of the body has arrived, so a client that
// declares a large body and sends nothing pins little memory.
const sizedBodyMax = 64 << 10

// ReadRawBody reads r's body under the limit of limit bytes. On failure
// it has already written the error reply (413 past the limit, else 400)
// and returns false. A body whose Content-Length is known, within the
// limit and at most sizedBodyMax is read into one buffer of that size;
// any other body is read through http.MaxBytesReader.
func ReadRawBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	var body []byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= min(limit, sizedBodyMax) {
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	if err != nil {
		code := http.StatusBadRequest // e.g. client went away mid-body
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		WriteError(w, code, fmt.Errorf("reading body: %w", err))
		return nil, false
	}
	return body, true
}

// srcInput is one function input in whichever wire form it arrived:
// textual IR, the canonical binary encoding, or (for a batch frame,
// decoded as the stream arrived) the function itself alongside its
// canonical bytes.
type srcInput struct {
	text   string   // textual IR; empty when binary is set
	binary []byte   // binary IR encoding; nil for text requests
	f      *ir.Func // decoded form, when already known

	// canonHash is sha256 over the function's canonical binary
	// encoding, filled in by KeyResolver.resolve. canonKnown marks it
	// set before doOne: resolved by the handler, or taken on trust
	// from the X-Prefgcd-Key request header.
	canonHash  [32]byte
	canonKnown bool
}

// decode produces the function from whichever wire form in carries.
func (in *srcInput) decode() (*ir.Func, int, error) {
	if in.f != nil {
		return in.f, 0, nil
	}
	var f *ir.Func
	var err error
	if in.binary != nil {
		f, err = ir.DecodeBinary(in.binary)
	} else {
		f, err = ir.Parse(in.text)
	}
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return f, 0, nil
}

// Request is one /v1/allocate request as the front end decodes it. A
// memo hit (Memoized) sets only Binary, Canon and Key; any other
// request has its Spec, Machine and TimeoutMS, and its Canon and Key
// once resolved.
type Request struct {
	Binary    bool // the body is binary IR
	Memoized  bool // Canon and Key came from the request memo; the body was not parsed
	Spec      Spec // normalized
	Machine   *target.Machine
	TimeoutMS int
	Canon     [32]byte // sha256 of the function's canonical binary encoding
	Key       Key      // KeyFor(Canon, Spec)

	in      srcInput
	bodyKey [32]byte // the body's memo key, when memo is set
	memo    bool     // a JSON body that may enter the memo once resolved
}

// readAllocate decodes a /v1/allocate body read from r. With memo set,
// a JSON body seen before is answered from the memo unparsed; every
// other body is checked through Spec.Normalize. An error is a 400.
func (kr *KeyResolver) readAllocate(r *http.Request, body []byte, memo bool) (Request, error) {
	req := Request{Binary: IsBinaryRequest(r)}
	if memo && !req.Binary {
		req.bodyKey, req.memo = memoKey(formJSON, body), true
		if res, ok := kr.memo.Get(req.bodyKey); ok {
			req.Memoized, req.Canon, req.Key = true, res.canon, res.key
			return req, nil
		}
	}
	return req, req.decode(r, body)
}

// decode checks a /v1/allocate body: the JSON parse and the empty
// source, or the empty body, the binary magic and the query spec; then
// Spec.Normalize. The function itself is parsed or decoded later, by
// resolve or by the worker.
func (req *Request) decode(r *http.Request, body []byte) error {
	if req.Binary {
		if len(body) == 0 {
			return errors.New("empty source")
		}
		if !ir.IsBinary(body) {
			return errors.New("body is not binary IR (bad magic)")
		}
		var err error
		if req.Spec, req.TimeoutMS, err = SpecFromQuery(r); err != nil {
			return err
		}
		req.in = srcInput{binary: body}
	} else {
		var a AllocateRequest
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("parsing request: %w", err)
		}
		if a.Source == "" {
			return errors.New("empty source")
		}
		req.Spec, req.TimeoutMS, req.in = a.Spec, a.TimeoutMS, srcInput{text: a.Source}
	}
	var err error
	req.Machine, err = req.Spec.Normalize()
	return err
}

// resolveRequest fills a decoded request's Canon and Key, and enters a
// memo-eligible body into the memo. A no_cache body never enters: its
// memo hit would probe the cache it bypasses.
func (kr *KeyResolver) resolveRequest(req *Request) (int, error) {
	if code, err := kr.resolve(&req.in); err != nil {
		return code, err
	}
	req.in.canonKnown = true
	req.Canon, req.Key = req.in.canonHash, KeyFor(req.in.canonHash, req.Spec)
	if req.memo && !req.Spec.NoCache {
		kr.memo.Add(req.bodyKey, resolution{canon: req.Canon, key: req.Key})
	}
	return 0, nil
}

// ResolveAllocate decodes and resolves the /v1/allocate body read from
// r, as a replica would: a repeat JSON body costs one SHA-256 and one
// memo probe. The int is the HTTP status of the error, when non-nil.
// Binary is set even on error.
func (kr *KeyResolver) ResolveAllocate(r *http.Request, body []byte) (Request, int, error) {
	req, err := kr.readAllocate(r, body, true)
	if err != nil || req.Memoized {
		return req, http.StatusBadRequest, err
	}
	code, err := kr.resolveRequest(&req)
	return req, code, err
}

// Batch is a /v1/batch request as the front end decodes it: the
// normalized spec up front, then one function at a time from Next, so
// that a binary batch's later frames decode while earlier ones are
// already being allocated.
type Batch struct {
	Binary    bool
	Spec      Spec // normalized
	Machine   *target.Machine
	TimeoutMS int

	texts []string          // JSON form: the functions
	dec   *ir.StreamDecoder // binary form: the frame stream
	n     int               // functions returned so far
}

// BatchFunc is one function of a batch. Err, when set, is the item's
// own error (an empty JSON source), which the reply carries with Code
// in the function's place.
type BatchFunc struct {
	in   srcInput
	Err  string
	Code int
}

// ReadBatch starts decoding the /v1/batch request r: the JSON body, or
// a binary request's query spec, through Spec.Normalize and, for a JSON
// body, the batch limit. On failure it has already written the error
// reply and returns false.
func ReadBatch(w http.ResponseWriter, r *http.Request) (*Batch, bool) {
	b := &Batch{Binary: IsBinaryRequest(r)}
	var err error
	if b.Binary {
		if b.Spec, b.TimeoutMS, err = SpecFromQuery(r); err == nil {
			b.dec = ir.NewStreamDecoder(bufio.NewReader(http.MaxBytesReader(w, r.Body, MaxBodyBytes)))
			b.dec.MaxFrame = MaxBodyBytes
		}
	} else {
		body, ok := ReadRawBody(w, r, MaxBodyBytes)
		if !ok {
			return nil, false
		}
		var req BatchRequest
		if err = json.Unmarshal(body, &req); err != nil {
			err = fmt.Errorf("parsing request: %w", err)
		}
		b.Spec, b.TimeoutMS, b.texts = req.Spec, req.TimeoutMS, req.Functions
	}
	if err == nil {
		b.Machine, err = b.Spec.Normalize()
	}
	if err == nil && len(b.texts) > MaxBatch {
		err = fmt.Errorf("batch of %d exceeds limit %d", len(b.texts), MaxBatch)
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return b, true
}

// Next returns the batch's next function, or io.EOF after the last.
// Any other error fails the whole batch with 400: a frame that does not
// decode, a binary batch past MaxBatch, or a batch of no functions.
func (b *Batch) Next() (BatchFunc, error) {
	var f BatchFunc
	if b.Binary {
		fn, err := b.dec.Next()
		if err == io.EOF {
			return f, b.end()
		}
		if err != nil {
			return f, err // the decoder's errors name the frame
		}
		if b.n >= MaxBatch {
			return f, fmt.Errorf("frame %d: batch exceeds limit %d", b.n, MaxBatch)
		}
		f.in = srcInput{binary: ir.EncodeBinary(fn), f: fn}
	} else {
		if b.n == len(b.texts) {
			return f, b.end()
		}
		if src := b.texts[b.n]; src != "" {
			f.in = srcInput{text: src}
		} else {
			f.Err, f.Code = "empty source", http.StatusBadRequest
		}
	}
	b.n++
	return f, nil
}

// end is Next's error after the last function.
func (b *Batch) end() error {
	if b.n == 0 {
		return errors.New("empty batch")
	}
	return io.EOF
}

// AllocateBody is the /v1/allocate body that asks for f alone under
// b's spec and timeout: f's canonical frame in a binary batch, else a
// JSON AllocateRequest.
func (b *Batch) AllocateBody(f BatchFunc) []byte {
	if b.Binary {
		return f.in.binary
	}
	body, _ := json.Marshal(AllocateRequest{Spec: b.Spec, Source: f.in.text, TimeoutMS: b.TimeoutMS})
	return body
}
