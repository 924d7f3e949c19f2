// Package wire is the typed frame codec beneath package mpi: every payload a
// rank sends — packed k-mer triples, DCSC matrix panels, read sequences,
// count/meta vectors, contig records — is encoded into a self-describing
// byte frame that decodes byte-identically in any process, replacing the old
// in-process contract where payloads crossed ranks as Go values and byte
// counts came from reflection.
//
// Frame layout (all integers little-endian):
//
//	magic   1 byte  0xE7
//	kind    1 byte  0 = slice of values, 1 = single value, 2 = aligned
//	fp      4 bytes structural fingerprint of the element type
//	count   uvarint number of elements (slice frames only)
//	pad     2 zero bytes (aligned frames only)
//	data    count encoded elements, or an aligned frame's payload
//
// The fingerprint hashes the element type's structure (field kinds, widths
// and order — not names), so a frame is rejected when sender and receiver
// disagree about layout, while renaming a field stays wire-compatible.
// Element encoding: bools are one byte; fixed-width ints, uints and floats
// are little-endian two's-complement/IEEE at their natural width; int and
// uint are always 8 bytes (cross-process runs must not depend on the host's
// word size); strings, []byte and nested slices are uvarint-length-prefixed;
// arrays and structs concatenate their elements/fields in order. Pointers,
// maps, channels, funcs and interfaces are not encodable and panic at codec
// compilation with the offending type.
//
// DataLen reports a frame's element-payload bytes (frame length minus
// header), which is what the mpi traffic counters charge — so counters are
// equal across transports by construction, and a 10-element []int64 message
// still counts 80 bytes exactly as the reflection-based accounting did.
//
// An aligned frame carries a payload behind a fixed 8-byte header: a SUMMA
// panel's arrays, laid out by their owner (spmat), or the elements of one
// part of a point-to-point exchange at their wire width (MarshalAligned,
// AlignedElems), whose count is the payload length over that width. An array
// placed at a multiple of 8 bytes into the payload lies 8-byte aligned in
// memory whenever the frame does. Both transports deliver a frame as its own
// allocation (in process, the sender's buffer itself; over TCP, the
// reader's). Go aligns an allocation of 16 bytes or more to 8, but packs a
// pointer-free one under 16 bytes into a shared block at an address aligned
// only to its size — a 9-byte frame can start at an odd address — so every
// point that allocates a frame (NewAlignedFrame here, the TCP reader there)
// asks for at least minFrameCap bytes of capacity.
//
// Views: UnmarshalOwned of a []byte frame, AlignedPayload, AlignedElems and
// Elems of a dense type return slices that alias the frame instead of
// copies. A broadcast frame is shared by reference among the in-process
// ranks of its tree, so a view of one is read-only. A point-to-point frame
// has one owner at a time — its sender until it is sent, then its receiver —
// and only that owner may write through a view of it.
//
// Codecs are compiled per element type on first use and cached, in one walk
// of the type: its fingerprint shape, copy runs and closures are derived
// together from the codecs of its elements, so the three cannot disagree.
// Width is the codec's answer to "how many bytes per element", which package
// mpi sizes its chunks by. On little-endian hosts a type whose memory layout
// already matches the wire layout (fixed-width, no padding, no indirection)
// encodes and decodes as one bulk copy, and every other fixed-size type whose
// leaves are fixed-width numbers — a padded struct such as a matrix triple —
// as a short list of copy runs per element (see copyRun), with one length
// check per frame. The per-field closures are the implementation for
// everything else: variable-length types, types with a bool in them (a bool
// is the byte 0 or 1 and nothing else, which the closures check: a frame
// holding another byte where a bool lies is refused, never normalised) and
// elements nested inside either. All three paths produce the same bytes;
// padding never reaches a frame.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

const (
	magic     = 0xE7
	kindSlice = 0x00
	kindOne   = 0x01
	kindAlign = 0x02

	// headerLen is the fixed prefix before the optional count varint.
	headerLen = 1 + 1 + 4
	// alignedHeaderLen is an aligned frame's whole header.
	alignedHeaderLen = headerLen + 2
	// minFrameCap is the least capacity an aligned frame is allocated with:
	// from 16 bytes up Go's allocator never places an object below 8-byte
	// alignment.
	minFrameCap = 16
)

// Marshal encodes a slice of values as one frame, allocated once at its exact
// size: fixed-size types are n × their width, variable-length types are
// measured in a sizing pass first.
func Marshal[T any](data []T) []byte {
	c := codecFor[T]()
	n := len(data)
	var base unsafe.Pointer
	if n > 0 {
		base = unsafe.Pointer(&data[0])
	}
	buf := make([]byte, 0, headerLen+uvarintLen(uint64(n))+c.encodedLen(base, n))
	buf = append(buf, magic, kindSlice)
	buf = binary.LittleEndian.AppendUint32(buf, c.fp)
	buf = binary.AppendUvarint(buf, uint64(n))
	return c.appendElems(buf, base, n)
}

// MarshalOne encodes a single value as one frame.
func MarshalOne[T any](v T) []byte {
	c := codecFor[T]()
	base := unsafe.Pointer(&v)
	buf := make([]byte, 0, headerLen+c.encodedLen(base, 1))
	buf = append(buf, magic, kindOne)
	buf = binary.LittleEndian.AppendUint32(buf, c.fp)
	return c.appendElems(buf, base, 1)
}

// NewByteFrame returns a []byte slice frame with room for n payload bytes,
// and the payload region to fill: a sender that packs its bytes straight into
// payload hands frame to the transport without Marshal's copy. The frame is
// byte-identical to Marshal(payload).
func NewByteFrame(n int) (frame, payload []byte) {
	h := headerLen + uvarintLen(uint64(n))
	frame = make([]byte, h+n)
	frame[0], frame[1] = magic, kindSlice
	binary.LittleEndian.PutUint32(frame[2:], codecFor[byte]().fp)
	binary.PutUvarint(frame[headerLen:], uint64(n))
	return frame, frame[h:]
}

// NewAlignedFrame returns an aligned frame tagged with T's fingerprint and
// room for n payload bytes, and the payload region for the sender to fill.
// The payload starts 8 bytes past the frame base, which is 8-byte aligned.
func NewAlignedFrame[T any](n int) (frame, payload []byte) {
	frame = make([]byte, alignedHeaderLen+n, max(alignedHeaderLen+n, minFrameCap))
	frame[0], frame[1] = magic, kindAlign
	binary.LittleEndian.PutUint32(frame[2:], codecFor[T]().fp)
	return frame, frame[alignedHeaderLen:]
}

// MarshalAligned encodes data as an aligned frame whose payload is its
// elements at their wire width, as AppendElems writes them; T must have a
// positive fixed width (see AlignedElems).
func MarshalAligned[T any](data []T) []byte {
	frame, payload := NewAlignedFrame[T](len(data) * codecFor[T]().fixed)
	AppendElems(payload[:0], data)
	return frame
}

// AlignedElems returns the elements of an aligned frame made by
// MarshalAligned[T] or filled through NewAlignedFrame[T]: a view of the
// frame for a dense T, a decoded copy otherwise (see Elems). The count is the
// payload length over T's width, so a T whose width varies or is zero cannot
// travel this way and is refused, as is a payload that is not a whole number
// of elements.
func AlignedElems[T any](frame []byte) ([]T, error) {
	c := codecFor[T]()
	if c.fixed <= 0 {
		return nil, fmt.Errorf("wire: %s: an aligned frame cannot carry the count of elements without a positive fixed width", c.name)
	}
	payload, err := AlignedPayload[T](frame)
	if err != nil {
		return nil, err
	}
	if len(payload)%c.fixed != 0 {
		return nil, fmt.Errorf("wire: %s: %d payload bytes are not a whole number of %d-byte elements", c.name, len(payload), c.fixed)
	}
	return Elems[T](payload, len(payload)/c.fixed)
}

// AlignedPayload returns a read-only view of the payload of a frame made by
// NewAlignedFrame[T]. A non-empty payload whose frame base is not 8-byte
// aligned is refused, never copied; an empty one has nothing to align.
func AlignedPayload[T any](frame []byte) ([]byte, error) {
	c := codecFor[T]()
	rest, err := checkHeader(frame, kindAlign, c)
	if err != nil {
		return nil, err
	}
	if len(rest) < 2 || rest[0]|rest[1] != 0 {
		return nil, fmt.Errorf("wire: %s: aligned frame header padding is not two zero bytes", c.name)
	}
	if len(frame) > alignedHeaderLen && uintptr(unsafe.Pointer(&frame[0]))%8 != 0 {
		return nil, fmt.Errorf("wire: %s: aligned frame base %p is not 8-byte aligned", c.name, &frame[0])
	}
	return rest[2:], nil
}

// Width reports the encoded bytes of one T, or -1 when T's encoding varies
// in length.
func Width[T any]() int { return codecFor[T]().fixed }

// AppendElems appends the encoding of data's elements to buf, with no frame
// header: the bytes Elems reads back.
func AppendElems[T any](buf []byte, data []T) []byte {
	c := codecFor[T]()
	base := unsafe.Pointer(unsafe.SliceData(data))
	return c.appendElems(slices.Grow(buf, c.encodedLen(base, len(data))), base, len(data))
}

// Elems returns the n elements of T that src holds and nothing else, as
// AppendElems wrote them. For a dense T (see Dense) the result is a view of
// src — no copy; who may write it is the frame owner's rule (see the package
// comment) — and src must be aligned for T:
// a misaligned src is refused, never copied. Any other T decodes into a fresh
// slice.
func Elems[T any](src []byte, n int) ([]T, error) {
	c := codecFor[T]()
	if n < 0 || c.fixed >= 0 && len(src) != n*c.fixed || c.minSize > 0 && n > len(src)/c.minSize {
		return nil, fmt.Errorf("wire: %s: %d bytes do not hold %d elements", c.name, len(src), n)
	}
	if !c.dense {
		out := make([]T, n)
		if err := c.decodeElems(src, unsafe.Pointer(unsafe.SliceData(out)), n); err != nil {
			return nil, err
		}
		return out, nil
	}
	if n == 0 {
		return []T{}, nil
	}
	var zero T
	if uintptr(unsafe.Pointer(&src[0]))%unsafe.Alignof(zero) != 0 {
		return nil, fmt.Errorf("wire: %s: elements at %p are misaligned", c.name, &src[0])
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&src[0])), n), nil
}

// Unmarshal decodes a slice frame produced by Marshal[T]. The result never
// aliases the frame.
func Unmarshal[T any](frame []byte) ([]T, error) {
	c := codecFor[T]()
	n, rest, err := readSliceHeader(frame, c)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	if err := c.decodeElems(rest, unsafe.Pointer(unsafe.SliceData(out)), n); err != nil {
		return nil, err
	}
	return out, nil
}

// UnmarshalOwned is Unmarshal for a caller that is the frame's only owner —
// nobody else holds, forwards or decodes it: a []byte frame then decodes to a
// view of the frame's payload instead of a copy. Every other element type
// decodes exactly as Unmarshal does.
func UnmarshalOwned[T any](frame []byte) ([]T, error) {
	c := codecFor[T]()
	if !c.isByte {
		return Unmarshal[T](frame)
	}
	n, rest, err := readSliceHeader(frame, c)
	if err != nil {
		return nil, err
	}
	if len(rest) != n {
		return nil, fmt.Errorf("wire: %s: frame has %d payload bytes, want %d", c.name, len(rest), n)
	}
	if n == 0 {
		return []T{}, nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&rest[0])), n), nil
}

// readSliceHeader checks a slice frame's header against c and returns the
// element count and the payload.
func readSliceHeader(frame []byte, c *codec) (int, []byte, error) {
	rest, err := checkHeader(frame, kindSlice, c)
	if err != nil {
		return 0, nil, err
	}
	n, rest, err := readUvarint(rest)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: %s: bad element count: %w", c.name, err)
	}
	// An element encodes to at least c.minSize bytes, so a well-formed frame
	// bounds the count — reject early rather than allocating attacker-sized
	// slices from a corrupt varint.
	if c.minSize > 0 && n > uint64(len(rest))/uint64(c.minSize) {
		return 0, nil, fmt.Errorf("wire: %s: count %d exceeds frame capacity %d", c.name, n, len(rest))
	}
	if n > math.MaxInt32 {
		return 0, nil, fmt.Errorf("wire: %s: count %d exceeds limit", c.name, n)
	}
	return int(n), rest, nil
}

// UnmarshalOne decodes a single-value frame produced by MarshalOne[T].
func UnmarshalOne[T any](frame []byte) (T, error) {
	var v T
	c := codecFor[T]()
	rest, err := checkHeader(frame, kindOne, c)
	if err != nil {
		return v, err
	}
	err = c.decodeElems(rest, unsafe.Pointer(&v), 1)
	return v, err
}

// IsOne reports whether frame is a single-value frame (MarshalOne), which a
// receiver expecting either kind tells from a slice frame before decoding.
func IsOne(frame []byte) bool { return len(frame) >= headerLen && frame[1] == kindOne }

// DataLen reports the element-payload bytes of a frame: its length minus the
// header and count prefix. This is the number the mpi traffic counters
// charge per message.
func DataLen(frame []byte) int64 {
	if len(frame) < headerLen {
		return 0
	}
	h := headerLen
	switch frame[1] {
	case kindAlign:
		h = alignedHeaderLen
	case kindSlice:
		_, n := binary.Uvarint(frame[headerLen:])
		if n <= 0 {
			return 0
		}
		h += n
	}
	return int64(max(len(frame)-h, 0))
}

// Fingerprint returns the structural fingerprint of T as encoded in frame
// headers — exposed for conformance and fuzz tests.
func Fingerprint[T any]() uint32 { return codecFor[T]().fp }

// Dense reports whether frames of T move as one bulk copy — T's memory layout
// is its wire layout. Exposed so that the owners of the element types whose
// exchange cost depends on it (the k-mer matrix triples) can pin it in a test.
func Dense[T any]() bool { return codecFor[T]().dense }

func checkHeader(frame []byte, kind byte, c *codec) ([]byte, error) {
	if len(frame) < headerLen {
		return nil, fmt.Errorf("wire: %s: frame too short (%d bytes)", c.name, len(frame))
	}
	if frame[0] != magic {
		return nil, fmt.Errorf("wire: %s: bad magic 0x%02x", c.name, frame[0])
	}
	if frame[1] != kind {
		return nil, fmt.Errorf("wire: %s: frame kind %d, want %d", c.name, frame[1], kind)
	}
	if fp := binary.LittleEndian.Uint32(frame[2:6]); fp != c.fp {
		return nil, fmt.Errorf("wire: %s: type fingerprint 0x%08x does not match 0x%08x — sender and receiver disagree about the element layout", c.name, fp, c.fp)
	}
	return frame[headerLen:], nil
}

// codec is a compiled encoder/decoder for one element type.
type codec struct {
	name    string // Go type name, for error messages
	shape   string // layout (kinds, widths, order — no names) that fp hashes
	fp      uint32 // structural fingerprint
	memSize uintptr
	fixed   int  // encoded bytes per element; -1 if variable
	minSize int  // lower bound on encoded bytes per element
	dense   bool // memory layout == wire layout: bulk-copy eligible
	isByte  bool // uint8: the one element type UnmarshalOwned returns as a view
	// runs is the copy-run form of a type whose leaves are all fixed-width
	// numbers stored exactly as the wire stores them (nil otherwise: a bool,
	// string or slice leaf, a 4-byte int, a big-endian host). Top-level
	// frames of such a type that is not dense move through runs instead of
	// enc/dec; a dense one's runs exist only for the types that contain it.
	runs []copyRun
	enc  func(dst []byte, p unsafe.Pointer) []byte
	dec  func(src []byte, p unsafe.Pointer) ([]byte, error)
	// size reports one element's encoded length; consulted only when fixed < 0.
	size func(p unsafe.Pointer) int
}

// copyRun is one maximal stretch of an element that is contiguous both in
// memory and on the wire: n bytes at memory offset mem are the n bytes at
// wire offset wire. Adjacent fields coalesce, padding falls between runs —
// spmat.Triple[bidir.Edge] (24 bytes in memory, 21 encoded) is the two runs
// {0, 0, 9} and {12, 9, 12}.
type copyRun struct {
	mem, wire, n int
}

// encodedLen is the exact encoded length of the n elements at base.
func (c *codec) encodedLen(base unsafe.Pointer, n int) int {
	if c.fixed >= 0 {
		return n * c.fixed
	}
	total := 0
	for i := 0; i < n; i++ {
		total += c.size(unsafe.Add(base, uintptr(i)*c.memSize))
	}
	return total
}

// appendElems encodes the n elements at base onto buf by the cheapest path
// the type allows: one bulk copy, copy runs, or the per-field closures.
func (c *codec) appendElems(buf []byte, base unsafe.Pointer, n int) []byte {
	switch {
	case n == 0:
		return buf
	case c.dense:
		return append(buf, unsafe.Slice((*byte)(base), n*int(c.memSize))...)
	case c.runs != nil:
		off := len(buf)
		buf = buf[:off+n*c.fixed] // Marshal sized buf exactly
		c.copyRuns(buf[off:], unsafe.Slice((*byte)(base), n*int(c.memSize)), n, true)
		return buf
	}
	for i := 0; i < n; i++ {
		buf = c.enc(buf, unsafe.Add(base, uintptr(i)*c.memSize))
	}
	return buf
}

// decodeElems decodes exactly n elements from src into the zeroed memory at
// base; src must hold nothing else.
func (c *codec) decodeElems(src []byte, base unsafe.Pointer, n int) error {
	if c.dense || c.runs != nil {
		if want := n * c.fixed; len(src) != want {
			return fmt.Errorf("wire: %s: frame has %d payload bytes, want %d", c.name, len(src), want)
		}
		mem := unsafe.Slice((*byte)(base), n*int(c.memSize))
		if c.dense {
			copy(mem, src)
		} else {
			c.copyRuns(src, mem, n, false)
		}
		return nil
	}
	var err error
	for i := 0; i < n; i++ {
		src, err = c.dec(src, unsafe.Add(base, uintptr(i)*c.memSize))
		if err != nil {
			return fmt.Errorf("wire: %s: element %d: %w", c.name, i, err)
		}
	}
	if len(src) != 0 {
		return fmt.Errorf("wire: %s: %d trailing bytes after %d elements", c.name, len(src), n)
	}
	return nil
}

// copyRuns moves n elements between their wire form (n × fixed bytes) and
// their memory form (n × memSize bytes) run by run; encode selects the
// direction. Both slices are exactly sized by the caller — the frame's one
// length check — so padding bytes are neither read nor written.
func (c *codec) copyRuns(wire, mem []byte, n int, encode bool) {
	ms, ws := int(c.memSize), c.fixed
	for i := 0; i < n; i++ {
		m, w := mem[i*ms:(i+1)*ms], wire[i*ws:(i+1)*ws]
		for _, r := range c.runs {
			if encode {
				copy(w[r.wire:r.wire+r.n], m[r.mem:r.mem+r.n])
			} else {
				copy(m[r.mem:r.mem+r.n], w[r.wire:r.wire+r.n])
			}
		}
	}
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

var codecs sync.Map // reflect.Type -> *codec

func codecFor[T any]() *codec {
	t := reflect.TypeOf((*T)(nil)).Elem()
	if c, ok := codecs.Load(t); ok {
		return c.(*codec)
	}
	c := compile(t, nil)
	actual, _ := codecs.LoadOrStore(t, c)
	return actual.(*codec)
}

// compile builds the codec for t in one walk of its structure: buildKind
// derives the fingerprint shape, the copy runs and the closures together from
// the element codecs it compiles on the way down. seen guards against
// recursive types (type T []T), which would otherwise loop.
func compile(t reflect.Type, seen []reflect.Type) *codec {
	if slices.Contains(seen, t) {
		panic(fmt.Sprintf("wire: recursive type %v is not encodable", t))
	}
	c := &codec{name: t.String(), memSize: t.Size()}
	buildKind(c, t, append(seen, t))
	h := fnv.New32a()
	h.Write([]byte(c.shape))
	c.fp = h.Sum32()
	c.isByte = t.Kind() == reflect.Uint8
	return c
}

func buildKind(c *codec, t reflect.Type, seen []reflect.Type) {
	switch t.Kind() {
	case reflect.Bool:
		// One byte of 0/1 in memory too, but neither dense nor a copy run:
		// a received byte is a bool only if it is 0 or 1, so every decode
		// checks it, and no view of a frame is one.
		c.shape, c.fixed, c.minSize = "b", 1, 1
		c.enc = func(dst []byte, p unsafe.Pointer) []byte {
			if *(*bool)(p) {
				return append(dst, 1)
			}
			return append(dst, 0)
		}
		c.dec = func(src []byte, p unsafe.Pointer) ([]byte, error) {
			if len(src) < 1 {
				return nil, errShort
			}
			if src[0] > 1 {
				return nil, errBool
			}
			*(*bool)(p) = src[0] == 1
			return src[1:], nil
		}
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fixedInt(c, "i", int(t.Size()))
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fixedInt(c, "u", int(t.Size()))
	case reflect.Float32, reflect.Float64:
		fixedInt(c, "f", int(t.Size()))
	case reflect.Int:
		number(c, "i8", 8, hostLittleEndian && c.memSize == 8)
		c.enc = func(dst []byte, p unsafe.Pointer) []byte {
			return binary.LittleEndian.AppendUint64(dst, uint64(*(*int)(p)))
		}
		c.dec = func(src []byte, p unsafe.Pointer) ([]byte, error) {
			if len(src) < 8 {
				return nil, errShort
			}
			*(*int)(p) = int(int64(binary.LittleEndian.Uint64(src)))
			return src[8:], nil
		}
	case reflect.Uint:
		number(c, "u8", 8, hostLittleEndian && c.memSize == 8)
		c.enc = func(dst []byte, p unsafe.Pointer) []byte {
			return binary.LittleEndian.AppendUint64(dst, uint64(*(*uint)(p)))
		}
		c.dec = func(src []byte, p unsafe.Pointer) ([]byte, error) {
			if len(src) < 8 {
				return nil, errShort
			}
			*(*uint)(p) = uint(binary.LittleEndian.Uint64(src))
			return src[8:], nil
		}
	case reflect.String:
		c.shape, c.fixed, c.minSize = "s", -1, 1
		c.enc = func(dst []byte, p unsafe.Pointer) []byte {
			s := *(*string)(p)
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			return append(dst, s...)
		}
		c.dec = func(src []byte, p unsafe.Pointer) ([]byte, error) {
			n, rest, err := readUvarint(src)
			if err != nil || n > uint64(len(rest)) {
				return nil, errShort
			}
			*(*string)(p) = string(rest[:n])
			return rest[n:], nil
		}
		c.size = func(p unsafe.Pointer) int {
			n := len(*(*string)(p))
			return uvarintLen(uint64(n)) + n
		}
	case reflect.Slice:
		ec := compile(t.Elem(), seen)
		es := ec.memSize
		st := t
		c.shape, c.fixed, c.minSize = "["+ec.shape, -1, 1
		c.enc = func(dst []byte, p unsafe.Pointer) []byte {
			sh := (*sliceHeader)(p)
			dst = binary.AppendUvarint(dst, uint64(sh.len))
			if sh.len == 0 {
				return dst
			}
			if ec.dense {
				return append(dst, unsafe.Slice((*byte)(sh.data), sh.len*int(es))...)
			}
			for i := 0; i < sh.len; i++ {
				dst = ec.enc(dst, unsafe.Add(sh.data, uintptr(i)*es))
			}
			return dst
		}
		c.dec = func(src []byte, p unsafe.Pointer) ([]byte, error) {
			n, rest, err := readUvarint(src)
			if err != nil {
				return nil, err
			}
			if ec.minSize > 0 && n > uint64(len(rest))/uint64(ec.minSize) {
				return nil, errShort
			}
			if n > math.MaxInt32 {
				return nil, errShort
			}
			sv := reflect.MakeSlice(st, int(n), int(n))
			if n > 0 {
				base := sv.UnsafePointer()
				if ec.dense {
					want := int(n) * int(es)
					if len(rest) < want {
						return nil, errShort
					}
					copy(unsafe.Slice((*byte)(base), want), rest)
					rest = rest[want:]
				} else {
					for i := uint64(0); i < n; i++ {
						rest, err = ec.dec(rest, unsafe.Add(base, uintptr(i)*es))
						if err != nil {
							return nil, err
						}
					}
				}
			}
			// Install through reflect so the write carries proper GC barriers
			// for the freshly built backing array.
			reflect.NewAt(st, p).Elem().Set(sv)
			return rest, nil
		}
		c.size = func(p unsafe.Pointer) int {
			sh := (*sliceHeader)(p)
			return uvarintLen(uint64(sh.len)) + ec.encodedLen(sh.data, sh.len)
		}
	case reflect.Array:
		ec := compile(t.Elem(), seen)
		es, n := ec.memSize, t.Len()
		if ec.fixed >= 0 {
			c.fixed = n * ec.fixed
		} else {
			c.fixed = -1
		}
		c.minSize = n * ec.minSize
		c.dense = ec.dense && c.fixed >= 0 && uintptr(c.fixed) == c.memSize
		c.shape = fmt.Sprintf("a%d%s", n, ec.shape)
		if ec.runs != nil || n == 0 && c.fixed >= 0 { // no element, no leaf to rule runs out
			c.runs = []copyRun{}
			for i := 0; i < n; i++ {
				c.runs = appendRuns(c.runs, ec.runs, i*int(es), i*ec.fixed)
			}
		}
		c.enc = func(dst []byte, p unsafe.Pointer) []byte {
			for i := 0; i < n; i++ {
				dst = ec.enc(dst, unsafe.Add(p, uintptr(i)*es))
			}
			return dst
		}
		c.dec = func(src []byte, p unsafe.Pointer) ([]byte, error) {
			var err error
			for i := 0; i < n; i++ {
				src, err = ec.dec(src, unsafe.Add(p, uintptr(i)*es))
				if err != nil {
					return nil, err
				}
			}
			return src, nil
		}
		c.size = func(p unsafe.Pointer) int { return ec.encodedLen(p, n) }
	case reflect.Struct:
		type field struct {
			off uintptr
			c   *codec
		}
		fields := make([]field, t.NumField())
		fixed, minSize, dense := 0, 0, true
		shape, runs := "{", []copyRun{}
		for i := range fields {
			f := t.Field(i)
			fc := compile(f.Type, seen)
			fields[i] = field{off: f.Offset, c: fc}
			shape += fc.shape
			if runs != nil && fc.runs != nil {
				runs = appendRuns(runs, fc.runs, int(f.Offset), fixed)
			} else {
				runs = nil
			}
			if fc.fixed < 0 || fixed < 0 {
				fixed = -1
			} else {
				fixed += fc.fixed
			}
			minSize += fc.minSize
			dense = dense && fc.dense
		}
		c.shape, c.fixed, c.minSize, c.runs = shape+"}", fixed, minSize, runs
		// Dense only when the fields' wire bytes tile the struct exactly:
		// any padding would leak nondeterministic memory into frames.
		c.dense = dense && fixed >= 0 && uintptr(fixed) == c.memSize
		c.enc = func(dst []byte, p unsafe.Pointer) []byte {
			for _, f := range fields {
				dst = f.c.enc(dst, unsafe.Add(p, f.off))
			}
			return dst
		}
		c.dec = func(src []byte, p unsafe.Pointer) ([]byte, error) {
			var err error
			for _, f := range fields {
				src, err = f.c.dec(src, unsafe.Add(p, f.off))
				if err != nil {
					return nil, err
				}
			}
			return src, nil
		}
		c.size = func(p unsafe.Pointer) int {
			total := 0
			for _, f := range fields {
				total += f.c.encodedLen(unsafe.Add(p, f.off), 1)
			}
			return total
		}
	default:
		panic(fmt.Sprintf("wire: type %v (kind %v) is not encodable — only bools, fixed-width numbers, int/uint, strings, slices, arrays and structs of those cross the wire", t, t.Kind()))
	}
}

// fixedInt wires the codec for a fixed-width integer or float of w bytes,
// kind "i", "u" or "f"; floats reuse the integer paths via their memory
// representation, which is exactly their IEEE bit pattern.
func fixedInt(c *codec, kind string, w int) {
	number(c, fmt.Sprintf("%s%d", kind, w), w, hostLittleEndian)
	switch w {
	case 1:
		c.enc = func(dst []byte, p unsafe.Pointer) []byte { return append(dst, *(*byte)(p)) }
		c.dec = func(src []byte, p unsafe.Pointer) ([]byte, error) {
			if len(src) < 1 {
				return nil, errShort
			}
			*(*byte)(p) = src[0]
			return src[1:], nil
		}
	case 2:
		c.enc = func(dst []byte, p unsafe.Pointer) []byte {
			return binary.LittleEndian.AppendUint16(dst, *(*uint16)(p))
		}
		c.dec = func(src []byte, p unsafe.Pointer) ([]byte, error) {
			if len(src) < 2 {
				return nil, errShort
			}
			*(*uint16)(p) = binary.LittleEndian.Uint16(src)
			return src[2:], nil
		}
	case 4:
		c.enc = func(dst []byte, p unsafe.Pointer) []byte {
			return binary.LittleEndian.AppendUint32(dst, *(*uint32)(p))
		}
		c.dec = func(src []byte, p unsafe.Pointer) ([]byte, error) {
			if len(src) < 4 {
				return nil, errShort
			}
			*(*uint32)(p) = binary.LittleEndian.Uint32(src)
			return src[4:], nil
		}
	case 8:
		c.enc = func(dst []byte, p unsafe.Pointer) []byte {
			return binary.LittleEndian.AppendUint64(dst, *(*uint64)(p))
		}
		c.dec = func(src []byte, p unsafe.Pointer) ([]byte, error) {
			if len(src) < 8 {
				return nil, errShort
			}
			*(*uint64)(p) = binary.LittleEndian.Uint64(src)
			return src[8:], nil
		}
	}
}

// number sets what every number codec shares: its fingerprint shape, its
// width and, when its memory form is its wire form, the one copy run it
// contributes to the types that contain it.
func number(c *codec, shape string, w int, dense bool) {
	c.shape, c.fixed, c.minSize, c.dense = shape, w, w, dense
	if dense {
		c.runs = []copyRun{{n: w}}
	}
}

// appendRuns appends elem's runs, placed at memory offset mem and wire offset
// wire, to runs, extending the last run when the first new one continues it
// in memory (wire offsets are consecutive by construction).
func appendRuns(runs, elem []copyRun, mem, wire int) []copyRun {
	for _, r := range elem {
		r.mem, r.wire = r.mem+mem, r.wire+wire
		if k := len(runs) - 1; k >= 0 && runs[k].mem+runs[k].n == r.mem {
			runs[k].n += r.n
		} else {
			runs = append(runs, r)
		}
	}
	return runs
}

// sliceHeader mirrors the runtime slice layout for direct element access.
type sliceHeader struct {
	data unsafe.Pointer
	len  int
	cap  int
}

var (
	errShort = fmt.Errorf("truncated frame")
	errBool  = fmt.Errorf("a bool byte is neither 0 nor 1")
)

func readUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, errShort
	}
	return v, src[n:], nil
}
