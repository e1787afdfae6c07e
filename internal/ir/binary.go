package ir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary wire format
//
// The binary encoding is the cold-path alternative to the textual IR:
// a compact, versioned, length-delimited form of one Func that decodes
// several times faster than Parse and whose bytes are *canonical* — a
// pure function of the Func's structure — so sha256 over the encoding
// is a content address that text and binary requests for the same
// function share.
//
// Layout (all integers are unsigned LEB128 varints unless noted;
// "sreg" is the register encoding below, "zint" is zigzag varint):
//
//	magic      4 bytes "PGIR"
//	version    1 byte (currently 1)
//	name       varint length + bytes
//	numVirt    varint
//	numSpill   varint
//	params     varint count, then count × sreg
//	symbols    varint count, then count × (varint length + bytes)
//	blocks     varint count, then per block:
//	  succs    varint count, then count × varint block id
//	  instrs   varint count, then per instruction:
//	    op     1 byte
//	    flags  1 byte (bit0 = has imm, bit1 = has sym)
//	    defs   varint count, then count × sreg
//	    uses   varint count, then count × sreg
//	    imm    zint, only when flags bit0
//	    sym    varint symbol-table index, only when flags bit1
//
// Register encoding (sreg): NoReg is 0, physical register n is 2n+1,
// virtual register n is 2n+2, so the common small virtual registers
// stay single-byte where the raw Reg value (offset by FirstVirtual)
// would not.
//
// Symbols are call targets, interned in first-occurrence order over
// the instruction walk. Imm and Sym are present-only-when-nonzero,
// which keeps the encoding canonical: EncodeBinary(f) is deterministic
// and DecodeBinary(EncodeBinary(f)) reproduces f exactly.
//
// Versioning: the version byte bumps on any layout change; decoders
// reject versions they do not know. Fields are never reinterpreted
// within a version.

// binaryMagic introduces every binary-encoded function.
const binaryMagic = "PGIR"

// BinaryVersion is the wire-format version EncodeBinary emits.
const BinaryVersion = 1

// IsBinary reports whether data begins with the binary IR magic, the
// sniff used to accept binary and text on the same endpoints and
// files.
func IsBinary(data []byte) bool {
	return len(data) >= len(binaryMagic) && string(data[:len(binaryMagic)]) == binaryMagic
}

// EncodeBinary returns the canonical binary encoding of f.
func EncodeBinary(f *Func) []byte {
	return AppendBinary(nil, f)
}

// AppendBinary appends the canonical binary encoding of f to dst and
// returns the extended slice, so encoders with a buffer to reuse avoid
// the allocation.
func AppendBinary(dst []byte, f *Func) []byte {
	dst = append(dst, binaryMagic...)
	dst = append(dst, BinaryVersion)
	dst = appendString(dst, f.Name)
	dst = binary.AppendUvarint(dst, uint64(f.NumVirt))
	dst = binary.AppendUvarint(dst, uint64(f.NumSpillSlots))
	dst = binary.AppendUvarint(dst, uint64(len(f.Params)))
	for _, p := range f.Params {
		dst = appendReg(dst, p)
	}

	// Symbol table: call targets in first-occurrence order.
	var syms []string
	symIndex := map[string]uint64{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if s := b.Instrs[i].Sym; s != "" {
				if _, ok := symIndex[s]; !ok {
					symIndex[s] = uint64(len(syms))
					syms = append(syms, s)
				}
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(syms)))
	for _, s := range syms {
		dst = appendString(dst, s)
	}

	dst = binary.AppendUvarint(dst, uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		dst = binary.AppendUvarint(dst, uint64(len(b.Succs)))
		for _, s := range b.Succs {
			dst = binary.AppendUvarint(dst, uint64(s))
		}
		dst = binary.AppendUvarint(dst, uint64(len(b.Instrs)))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			var flags byte
			if in.Imm != 0 {
				flags |= flagImm
			}
			if in.Sym != "" {
				flags |= flagSym
			}
			dst = append(dst, byte(in.Op), flags)
			dst = binary.AppendUvarint(dst, uint64(len(in.Defs)))
			for _, d := range in.Defs {
				dst = appendReg(dst, d)
			}
			dst = binary.AppendUvarint(dst, uint64(len(in.Uses)))
			for _, u := range in.Uses {
				dst = appendReg(dst, u)
			}
			if flags&flagImm != 0 {
				dst = binary.AppendVarint(dst, in.Imm)
			}
			if flags&flagSym != 0 {
				dst = binary.AppendUvarint(dst, symIndex[in.Sym])
			}
		}
	}
	return dst
}

const (
	flagImm = 1 << 0
	flagSym = 1 << 1
)

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendReg writes the sreg encoding: NoReg=0, phys n=2n+1, virt n=2n+2.
func appendReg(dst []byte, r Reg) []byte {
	var v uint64
	switch {
	case r == NoReg:
		v = 0
	case r.IsPhys():
		v = uint64(r.PhysNum())<<1 + 1
	default:
		v = uint64(r.VirtNum())<<1 + 2
	}
	return binary.AppendUvarint(dst, v)
}

// DecodeBinary decodes one binary-encoded function. The whole input
// must be consumed; the decoded function is validated exactly as
// Parse validates, so corrupted or truncated inputs produce an error,
// never a panic, and a successful decode is structurally sound.
func DecodeBinary(data []byte) (*Func, error) {
	f := new(Func)
	if err := DecodeBinaryInto(f, data); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeBinaryInto is DecodeBinary into dst, replacing whatever dst
// held. It reuses the storage an earlier DecodeBinaryInto on dst left
// behind: the blocks, the instructions, the edges and the register
// operands each in one array, with every instruction, operand and edge
// slice cut cap-limited from it.
// A caller that decodes one function after another into the same dst
// therefore allocates, once the arrays have grown to its largest
// input, only the name and symbol strings dst did not hold before.
// Only DecodeBinaryInto writes those arrays: a pass that rewrites
// dst's function between decodes may append to or replace any of its
// slices. Errors are DecodeBinary's, and after one dst holds no usable
// function but stays reusable.
func DecodeBinaryInto(dst *Func, data []byte) error {
	if err := decodeBinary(dst, data); err != nil {
		return fmt.Errorf("ir.DecodeBinary: %w", err)
	}
	if err := Validate(dst); err != nil {
		return fmt.Errorf("ir.DecodeBinary: invalid function: %w", err)
	}
	return nil
}

// decodeStore is the storage DecodeBinaryInto decodes into and reuses.
// blocks backs the Block values and ptrs the Blocks slice; instrs,
// edges and regs are the arenas each block's Instrs, Succs/Preds and
// Params/Defs/Uses are cut from; syms keeps the symbol strings, and
// preds counts each block's predecessors. So what a store keeps is the
// size of the largest function decoded into it.
type decodeStore struct {
	blocks []Block
	ptrs   []*Block
	instrs []Instr
	edges  []BlockID
	regs   []Reg
	syms   []string
	preds  []int32
}

// decodeBinary fills f from data, leaving the error unprefixed.
func decodeBinary(f *Func, data []byte) error {
	d := &binDecoder{buf: data}
	if len(data) < len(binaryMagic)+1 || string(data[:len(binaryMagic)]) != binaryMagic {
		return errors.New("bad magic")
	}
	d.pos = len(binaryMagic)
	if v := data[d.pos]; v != BinaryVersion {
		return fmt.Errorf("unsupported version %d (have %d)", v, BinaryVersion)
	}
	d.pos++

	st := f.store
	if st == nil {
		st = new(decodeStore)
		f.store = st
	}
	instrs, regs, edges := st.instrs[:0], st.regs[:0], st.edges[:0]
	f.Name = d.strReuse("name", f.Name)
	f.NumVirt = int(d.count("numVirt", 1<<31))
	f.NumSpillSlots = int(d.count("numSpillSlots", 1<<31))
	f.Params, regs = d.regs("param", d.len("params"), regs)
	nSyms := int(d.len("symbols"))
	if d.err == nil && len(st.syms) < nSyms {
		st.syms = append(st.syms, make([]string, nSyms-len(st.syms))...)
	}
	for i := 0; i < nSyms && d.err == nil; i++ {
		st.syms[i] = d.strReuse("symbol", st.syms[i])
	}
	syms := st.syms[:nSyms]

	nBlocks := int(d.len("blocks"))
	if d.err == nil && len(st.blocks) < nBlocks {
		st.blocks = make([]Block, nBlocks)
		st.ptrs = make([]*Block, nBlocks)
	}
	f.Blocks = f.Blocks[:0]
	for bi := 0; bi < nBlocks && d.err == nil; bi++ {
		b := &st.blocks[bi]
		*b = Block{ID: BlockID(bi)}
		st.ptrs[bi] = b
		lo := len(edges)
		for n := d.len("succs"); n > 0 && d.err == nil; n-- {
			edges = append(edges, BlockID(d.count("succ", uint64(nBlocks))))
		}
		b.Succs = cutArena(edges, lo)
		nInstrs := int(d.len("instrs"))
		if d.err != nil {
			break
		}
		lo = len(instrs)
		instrs = slices.Grow(instrs, nInstrs)[:lo+nInstrs]
		b.Instrs = cutArena(instrs, lo)
		for i := 0; i < nInstrs && d.err == nil; i++ {
			in := &b.Instrs[i]
			*in = Instr{}
			op := d.byte("op")
			if Op(op) >= numOps {
				d.fail("op", fmt.Errorf("unknown op %d", op))
				break
			}
			in.Op = Op(op)
			flags := d.byte("flags")
			if flags&^(flagImm|flagSym) != 0 {
				d.fail("flags", fmt.Errorf("unknown flag bits %#x", flags))
				break
			}
			in.Defs, regs = d.regs("def", d.len("defs"), regs)
			in.Uses, regs = d.regs("use", d.len("uses"), regs)
			if flags&flagImm != 0 {
				in.Imm = d.int("imm")
			}
			if flags&flagSym != 0 {
				si := d.count("sym index", uint64(len(syms)))
				if d.err == nil {
					in.Sym = syms[si]
				}
			}
		}
	}
	st.instrs, st.regs, st.edges = instrs, regs, edges
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("%d trailing bytes after function", len(d.buf)-d.pos)
	}
	f.Blocks = st.ptrs[:nBlocks:nBlocks]
	st.edges = decodePreds(f, st, edges)
	return nil
}

// decodePreds fills every block's Preds as RecomputePreds would, cut
// from the edge arena after the successor edges, and returns the
// extended arena.
func decodePreds(f *Func, st *decodeStore, edges []BlockID) []BlockID {
	counts := slices.Grow(st.preds[:0], len(f.Blocks))[:len(f.Blocks)]
	clear(counts)
	st.preds = counts
	total := 0
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			counts[s]++
		}
		total += len(b.Succs)
	}
	edges = slices.Grow(edges, total)
	for i, b := range f.Blocks {
		if n := int(counts[i]); n > 0 {
			lo := len(edges)
			edges = edges[:lo+n]
			b.Preds = edges[lo : lo : lo+n]
		}
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			sb := f.Blocks[s]
			sb.Preds = append(sb.Preds, b.ID)
		}
	}
	return edges
}

// cutArena returns arena[lo:] cap-limited, or nil when it is empty.
func cutArena[T any](arena []T, lo int) []T {
	if lo == len(arena) {
		return nil
	}
	return arena[lo:len(arena):len(arena)]
}

// binDecoder reads the wire primitives with saturating error handling:
// the first failure sticks, and every later read returns zero values,
// so decode loops need no per-read error plumbing.
type binDecoder struct {
	buf []byte
	pos int
	err error
}

func (d *binDecoder) fail(what string, err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at offset %d: %w", what, d.pos, err)
	}
}

func (d *binDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail(what, io.ErrUnexpectedEOF)
		return 0
	}
	d.pos += n
	return v
}

// count reads a uvarint and rejects values >= limit.
func (d *binDecoder) count(what string, limit uint64) uint64 {
	v := d.uvarint(what)
	if d.err == nil && v >= limit {
		d.fail(what, fmt.Errorf("value %d out of range (limit %d)", v, limit))
		return 0
	}
	return v
}

// len reads an element count and bounds it by the remaining input —
// every element takes at least one byte, so a count beyond that is
// corrupt and must not drive an allocation.
func (d *binDecoder) len(what string) uint64 {
	v := d.uvarint(what)
	if d.err == nil && v > uint64(len(d.buf)-d.pos) {
		d.fail(what, fmt.Errorf("count %d exceeds %d remaining bytes", v, len(d.buf)-d.pos))
		return 0
	}
	return v
}

func (d *binDecoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail(what, io.ErrUnexpectedEOF)
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *binDecoder) int(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail(what, io.ErrUnexpectedEOF)
		return 0
	}
	d.pos += n
	return v
}

// strReuse reads a string, returning old itself when the bytes spell
// it, so a decoder reusing its storage allocates no repeated name.
func (d *binDecoder) strReuse(what, old string) string {
	n := d.len(what)
	if d.err != nil {
		return ""
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if string(b) == old {
		return old
	}
	return string(b)
}

// regs reads n registers onto arena and returns them as a cap-limited
// slice of it (nil when n is 0) with the extended arena.
func (d *binDecoder) regs(what string, n uint64, arena []Reg) ([]Reg, []Reg) {
	lo := len(arena)
	for ; n > 0 && d.err == nil; n-- {
		arena = append(arena, d.reg(what))
	}
	return cutArena(arena, lo), arena
}

func (d *binDecoder) reg(what string) Reg {
	v := d.uvarint(what)
	if d.err != nil {
		return NoReg
	}
	switch {
	case v == 0:
		return NoReg
	case v&1 == 1: // physical
		n := (v - 1) >> 1
		if n >= uint64(FirstVirtual)-1 {
			d.fail(what, fmt.Errorf("physical register %d out of range", n))
			return NoReg
		}
		return Phys(int(n))
	default: // virtual
		n := (v - 2) >> 1
		if n > uint64(math.MaxInt32)-uint64(FirstVirtual) {
			d.fail(what, fmt.Errorf("virtual register %d out of range", n))
			return NoReg
		}
		return Virt(int(n))
	}
}

// AppendBinaryFrame appends one length-prefixed binary function to
// dst: a uvarint byte length followed by the EncodeBinary bytes. A
// sequence of frames is the streaming batch wire format — functions
// decode one at a time as they arrive, so a consumer can overlap
// decoding function N+1 with allocating function N.
func AppendBinaryFrame(dst []byte, f *Func) []byte {
	body := AppendBinary(nil, f)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// StreamDecoder reads a sequence of length-prefixed binary functions
// (AppendBinaryFrame's format) from a reader, decoding lazily: each
// Next call reads and decodes exactly one frame.
type StreamDecoder struct {
	// MaxFrame bounds one frame's byte length; 0 means 64 MiB. A
	// corrupt length prefix must not drive a huge allocation.
	MaxFrame int

	r   io.ByteReader
	in  io.Reader
	buf []byte
	n   int // frames decoded so far
}

// NewStreamDecoder wraps r. The reader should be buffered; a plain
// io.Reader is adapted byte-by-byte for the length prefixes.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	d := &StreamDecoder{in: r}
	if br, ok := r.(io.ByteReader); ok {
		d.r = br
	} else {
		d.r = &oneByteReader{r: r}
	}
	return d
}

// Next decodes the next function. It returns io.EOF at a clean end of
// stream; a frame cut off mid-way is an error.
func (d *StreamDecoder) Next() (*Func, error) {
	size, err := binary.ReadUvarint(d.r)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("ir.StreamDecoder: frame %d length: %w", d.n, err)
	}
	max := d.MaxFrame
	if max <= 0 {
		max = 64 << 20
	}
	if size > uint64(max) {
		return nil, fmt.Errorf("ir.StreamDecoder: frame %d of %d bytes exceeds limit %d", d.n, size, max)
	}
	if uint64(cap(d.buf)) < size {
		d.buf = make([]byte, size)
	}
	buf := d.buf[:size]
	if _, err := io.ReadFull(d.in, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("ir.StreamDecoder: frame %d body: %w", d.n, err)
	}
	f, err := DecodeBinary(buf)
	if err != nil {
		return nil, fmt.Errorf("ir.StreamDecoder: frame %d: %w", d.n, err)
	}
	d.n++
	return f, nil
}

// oneByteReader adapts an unbuffered reader for ReadUvarint. The
// length prefix is a handful of bytes per frame, so the single-byte
// reads cost little even unbuffered.
type oneByteReader struct {
	r io.Reader
	b [1]byte
}

func (o *oneByteReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func (o *oneByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(o.r, o.b[:]); err != nil {
		return 0, err
	}
	return o.b[0], nil
}
