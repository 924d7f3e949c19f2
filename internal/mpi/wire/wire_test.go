package wire

// Round-trip properties of the frame codec: every payload shape the pipeline
// sends must decode to a semantically equal value, and re-encoding the
// decoded value must reproduce the original bytes exactly — the invariant
// that keeps traffic counters equal across transports and processes. The
// fuzz targets push both directions: structured inputs through
// encode→decode→re-encode identity, and arbitrary bytes through the decoder
// without panics.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// roundTrip asserts Marshal→Unmarshal→Marshal identity for a slice payload.
func roundTrip[T any](t *testing.T, name string, in []T) {
	t.Helper()
	frame := Marshal(in)
	out, err := Unmarshal[T](frame)
	if err != nil {
		t.Fatalf("%s: Unmarshal: %v", name, err)
	}
	if len(out) != len(in) {
		t.Fatalf("%s: got %d elements, want %d", name, len(out), len(in))
	}
	for i := range in {
		if !equalLoose(reflect.ValueOf(out[i]), reflect.ValueOf(in[i])) {
			t.Fatalf("%s[%d]: got %#v, want %#v", name, i, out[i], in[i])
		}
	}
	again := Marshal(out)
	if !bytes.Equal(frame, again) {
		t.Fatalf("%s: re-encoded frame differs:\n  first  %x\n  second %x", name, frame, again)
	}
}

// equalLoose compares values treating nil and empty slices as equal at any
// nesting depth: the decoder cannot distinguish a sender's nil from an empty
// slice (both are zero-length on the wire), and no caller relies on the
// difference.
func equalLoose(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalLoose(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalLoose(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

func TestRoundTripScalars(t *testing.T) {
	roundTrip(t, "int64", []int64{0, 1, -1, 1<<62 - 1, -(1 << 62)})
	roundTrip(t, "int", []int{42, -42, 1 << 40})
	roundTrip(t, "uint64", []uint64{0, ^uint64(0)})
	roundTrip(t, "int32", []int32{-2147483648, 2147483647})
	roundTrip(t, "uint8", []uint8{0, 128, 255})
	roundTrip(t, "bool", []bool{true, false, true})
	roundTrip(t, "float64", []float64{0, 1.5, -2.25e300})
	roundTrip(t, "float32", []float32{0, -1.5, 3.14159})
	roundTrip(t, "string", []string{"", "a", "hello, 世界"})
	roundTrip(t, "empty", []int64{})
	roundTrip(t, "nil", []int64(nil))
}

// The payload shapes the pipeline actually sends: struct triples, nested
// byte slices (read sequences), strings, padded structs.
func TestRoundTripStructShapes(t *testing.T) {
	type triple struct {
		Row, Col int32
		Val      int64
	}
	roundTrip(t, "triple", []triple{{1, 2, 3}, {-4, 5, -6}})

	type padded struct {
		A byte // 7 bytes of padding follow in memory
		B int64
		C byte
	}
	roundTrip(t, "padded", []padded{{1, -2, 3}, {255, 1 << 60, 0}})

	type seqMsg struct {
		ID  int64
		Seq []byte
	}
	roundTrip(t, "nested-bytes", []seqMsg{
		{1, []byte("ACGT")}, {2, nil}, {3, []byte{}}, {4, bytes.Repeat([]byte{7}, 300)},
	})

	type deep struct {
		Name string
		Rows [][]int32
	}
	roundTrip(t, "deep", []deep{
		{"a", [][]int32{{1, 2}, nil, {}}},
		{"", nil},
	})

	type arrayed struct {
		K [4]uint16
		V float64
	}
	roundTrip(t, "array-field", []arrayed{{[4]uint16{1, 2, 3, 4}, 0.5}})
}

// TestPaddedStructDeterminism encodes two memory-distinct but value-equal
// padded structs and requires identical frames: padding bytes must never
// leak into the encoding (they would make counters and checksums
// nondeterministic across processes).
func TestPaddedStructDeterminism(t *testing.T) {
	type padded struct {
		A byte
		B int64
	}
	mk := func() []padded {
		// Heap noise so any padding leak has a chance to differ.
		s := make([]padded, 1)
		s[0] = padded{A: 9, B: -1}
		return s
	}
	f1, f2 := Marshal(mk()), Marshal(mk())
	if !bytes.Equal(f1, f2) {
		t.Fatalf("value-equal padded structs encoded differently:\n  %x\n  %x", f1, f2)
	}
}

// TestDataLenCountsPayloadOnly pins the counter contract: 10 int64s charge
// TestNonCanonicalBoolRefused: a frame holding a byte other than 0 or 1
// where a bool lies is refused by every decode entry point — Unmarshal,
// UnmarshalOne, AlignedElems and Elems — for a bool, a dense struct of bools,
// a padded struct holding one and a bool slice inside a variable-width
// element, never normalised to true.
func TestNonCanonicalBoolRefused(t *testing.T) {
	type pair struct{ A, B bool }
	type padded struct {
		B bool
		V int32
	}
	type nested struct {
		S string
		B []bool
	}
	// Each value encodes one true bool fromEnd bytes before the end of its
	// element, which ends every frame below.
	boolRefused(t, true, 1)
	boolRefused(t, pair{false, true}, 1)
	boolRefused(t, padded{true, 7}, 5)
	boolRefused(t, nested{"x", []bool{false, true}}, 1)
}

func boolRefused[T any](t *testing.T, v T, fromEnd int) {
	t.Helper()
	name := reflect.TypeFor[T]().String()
	check := func(entry string, enc []byte, decode func([]byte) error) {
		t.Helper()
		if err := decode(enc); err != nil {
			t.Fatalf("%s %s of a canonical encoding: %v", entry, name, err)
		}
		enc[len(enc)-fromEnd] = 2 // in place: an aligned frame keeps its base
		if err := decode(enc); err == nil || !strings.Contains(err.Error(), "neither 0 nor 1") {
			t.Errorf("%s %s of a bool byte 2: %v, want it refused", entry, name, err)
		}
	}
	check("Unmarshal", Marshal([]T{v}), func(b []byte) error { _, err := Unmarshal[T](b); return err })
	check("UnmarshalOne", MarshalOne(v), func(b []byte) error { _, err := UnmarshalOne[T](b); return err })
	if Width[T]() < 0 {
		return
	}
	check("AlignedElems", MarshalAligned([]T{v}), func(b []byte) error { _, err := AlignedElems[T](b); return err })
	check("Elems", AppendElems(nil, []T{v}), func(b []byte) error { _, err := Elems[T](b, 1); return err })
}

// exactly 80 bytes, whatever the frame header costs.
func TestDataLenCountsPayloadOnly(t *testing.T) {
	frame := Marshal(make([]int64, 10))
	if n := DataLen(frame); n != 80 {
		t.Fatalf("DataLen(10 int64s) = %d, want 80", n)
	}
	if n := DataLen(Marshal([]int64{})); n != 0 {
		t.Fatalf("DataLen(empty) = %d, want 0", n)
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	frame := Marshal([]int64{1, 2, 3})
	if _, err := Unmarshal[int32](frame); err == nil {
		t.Fatal("int64 frame decoded as int32 without error")
	}
	type a struct{ X, Y int64 }
	type b struct{ X int64 }
	if _, err := Unmarshal[b](Marshal([]a{{1, 2}})); err == nil {
		t.Fatal("struct frame decoded as narrower struct without error")
	}
	// Same structure under different field names is intentionally accepted:
	// the fingerprint hashes kinds and widths, not names.
	type c struct{ P, Q int64 }
	if _, err := Unmarshal[c](Marshal([]a{{1, 2}})); err != nil {
		t.Fatalf("structurally identical type rejected: %v", err)
	}
}

func TestTruncatedAndGarbageFramesError(t *testing.T) {
	frame := Marshal([]int64{1, 2, 3})
	for cut := 0; cut < len(frame); cut++ {
		if _, err := Unmarshal[int64](frame[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(frame))
		}
	}
	if _, err := Unmarshal[int64]([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err == nil {
		t.Fatal("garbage decoded without error")
	}
	// A huge declared count must error out, not attempt the allocation.
	bad := append([]byte(nil), Marshal([]int64{})[:6]...)
	bad = append(bad, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := Unmarshal[int64](bad); err == nil {
		t.Fatal("absurd element count decoded without error")
	}
}

func TestFingerprintDistinguishesShapes(t *testing.T) {
	type a struct{ X int64 }
	type b struct{ X int32 }
	if Fingerprint[a]() == Fingerprint[b]() {
		t.Fatal("int64 and int32 structs share a fingerprint")
	}
	if Fingerprint[int64]() == Fingerprint[uint64]() {
		t.Fatal("int64 and uint64 share a fingerprint")
	}
	if Fingerprint[[]byte]() == Fingerprint[string]() {
		t.Fatal("[]byte and string share a fingerprint (different recv types)")
	}
}

// Compilation refuses what has no wire form, naming the offending type: a
// kind outside the encodable set, at any depth, and a type containing itself.
func TestCompileRefusesUnencodableTypes(t *testing.T) {
	type node []node
	type withChan struct {
		X  int64
		Ch []chan int
	}
	for _, c := range []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeOf(node(nil)), "recursive type wire.node"},
		{reflect.TypeOf(withChan{}), "type chan int (kind chan) is not encodable"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("%v: panic %q, want it to contain %q", c.typ, msg, c.want)
				}
			}()
			compile(c.typ, nil)
		}()
	}
}

// fixedMsg is a fixed-layout, padded, number-only struct: the shape the
// copy-run path encodes, with the per-field closures as its oracle.
type fixedMsg struct {
	A int64
	B uint32
	C uint8 // padding follows
	X float64
	K [3]uint16
}

// FuzzRoundTripStruct drives a mixed struct payload (fixed ints, string,
// nested bytes, padding) and a fixed-layout one from fuzzed scalars: decode
// must invert encode, re-encoding must be byte-identical, and the
// fixed-layout frame must equal what the closures produce.
func FuzzRoundTripStruct(f *testing.F) {
	f.Add(int64(1), uint32(2), "abc", []byte("ACGT"), true, 3.5)
	f.Add(int64(-1), uint32(0), "", []byte{}, false, -0.0)
	f.Add(int64(1<<62), ^uint32(0), "世界", bytes.Repeat([]byte{0xff}, 100), true, 1e-300)
	type msg struct {
		A int64
		B uint32
		S string
		P []byte
		F bool
		X float64
	}
	f.Fuzz(func(t *testing.T, a int64, b uint32, s string, p []byte, fl bool, x float64) {
		in := []msg{{a, b, s, p, fl, x}, {A: -a, B: b ^ 0xffff, S: s + s, P: nil, F: !fl, X: -x}}
		frame := Marshal(in)
		out, err := Unmarshal[msg](frame)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		again := Marshal(out)
		if !bytes.Equal(frame, again) {
			t.Fatalf("re-encode differs for %#v", in)
		}
		if len(out) != 2 || out[0].A != a || out[0].S != s || out[1].F == fl {
			t.Fatalf("decode mismatch: %#v vs %#v", out, in)
		}
		// NaN compares unequal to itself; compare bit patterns via re-encode
		// (done above) and direct equality only for ordinary values.
		if x == x && out[0].X != x {
			t.Fatalf("float mismatch: %v vs %v", out[0].X, x)
		}

		fin := []fixedMsg{{a, b, uint8(len(s)), x, [3]uint16{uint16(b), uint16(b >> 16), uint16(len(p))}}, {A: -a, X: -x}}
		fframe := Marshal(fin)
		c := codecFor[fixedMsg]()
		if want := encodeByClosures(c, unsafe.Pointer(&fin[0]), len(fin)); !bytes.Equal(fframe[len(fframe)-len(want):], want) {
			t.Fatalf("fixed-layout frame differs from the closure encoding for %#v", fin)
		}
		fout, err := Unmarshal[fixedMsg](fframe)
		if err != nil || !bytes.Equal(Marshal(fout), fframe) {
			t.Fatalf("fixed-layout round trip: %v", err)
		}
		if fout[0].A != a || fout[0].B != b || fout[0].K != fin[0].K || fout[1].A != -a {
			t.Fatalf("fixed-layout decode mismatch: %#v vs %#v", fout, fin)
		}
	})
}

// blob holds []byte at several depths beside a string and another slice:
// the shape UnmarshalOwned views in part.
type blob struct {
	B  []byte
	S  string
	N  [][]byte
	I  []int32
	In struct {
		X []byte
		F bool
	}
}

// checkOwned holds UnmarshalOwned[T] to Unmarshal[T] on frame: both accept
// it or both refuse it, with equal values, and views reports the byte
// ranges the owned decode viewed (every one must lie inside the frame) and
// copied (none may); nothing Unmarshal returns may.
func checkOwned[T any](t *testing.T, frame []byte, views func(v []T) (viewed, copied [][]byte)) {
	t.Helper()
	ref, err := Unmarshal[T](frame)
	own, oerr := UnmarshalOwned[T](frame)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("%T: Unmarshal err = %v, UnmarshalOwned err = %v", own, err, oerr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(ref, own) {
		t.Fatalf("%T: UnmarshalOwned = %#v, Unmarshal = %#v", own, own, ref)
	}
	inside := func(b []byte) bool {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
		p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(frame))
	}
	viewed, copied := views(own)
	for _, b := range viewed {
		if len(b) > 0 && (!inside(b) || cap(b) != len(b)) {
			t.Fatalf("%T: a []byte of %d bytes (capacity %d) is not a capped view of the frame", own, len(b), cap(b))
		}
	}
	for _, b := range copied {
		if len(b) > 0 && inside(b) {
			t.Fatalf("%T: %q lies inside the frame", own, b)
		}
	}
	refViewed, refCopied := views(ref)
	for _, b := range append(refViewed, refCopied...) {
		if len(b) > 0 && inside(b) {
			t.Fatalf("%T: Unmarshal's %q lies inside the frame", ref, b)
		}
	}
}

// blobViews lists what UnmarshalOwned[blob] views (every []byte) and copies
// (the strings; the []int32 is fresh memory too).
func blobViews(v []blob) (viewed, copied [][]byte) {
	for _, b := range v {
		viewed = append(append(viewed, b.B, b.In.X), b.N...)
		copied = append(copied, unsafe.Slice(unsafe.StringData(b.S), len(b.S)),
			unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.I))), 4*len(b.I)))
	}
	return viewed, copied
}

// FuzzDecodeArbitraryBytes feeds the decoder raw bytes: it may reject them,
// but must never panic, and anything it accepts must re-encode to a frame it
// accepts again (self-produced frames are canonical). The aligned-part decode
// a collective's receiver runs on every message (AlignedElems) is held to
// more: whatever it accepts, as a view of a dense type or a decoded copy of a
// padded one, re-encodes to the very same frame. UnmarshalOwned, which a
// collective's receiver runs on every variable-width part, accepts exactly
// what Unmarshal accepts and decodes it to an equal value, every []byte in it
// (at the top or at any depth) a view of the frame and every string a copy.
func FuzzDecodeArbitraryBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add(Marshal([]int64{1, 2, 3}))
	f.Add(Marshal([]string{"x", ""}))
	f.Add([]byte{0xe7, 0x00, 0xff, 0xff, 0xff, 0xff, 0x01})
	type msg struct {
		S string
		V []int64
	}
	f.Add(Marshal([]msg{{"a", []int64{1}}}))
	// Fixed-layout (copy-run) frames: whole, truncated inside the second
	// element, over-long by one byte, and with a count the payload cannot
	// hold.
	fixed := Marshal([]fixedMsg{{1, 2, 3, 4.5, [3]uint16{6, 7, 8}}, {A: -1}})
	f.Add(fixed)
	f.Add(fixed[:len(fixed)-5])
	f.Add(append(append([]byte(nil), fixed...), 0))
	f.Add(append(append([]byte(nil), fixed[:6]...), 0x7f, 1, 2, 3))
	// Aligned parts: whole, cut inside an element, with a nonzero padding
	// byte, and of the padded type.
	words := MarshalAligned([]uint64{1, 1 << 63, 3})
	f.Add(words)
	f.Add(words[:len(words)-3])
	f.Add(append(append([]byte(nil), words[:6]...), 0, 1))
	f.Add(MarshalAligned([]fixedMsg{{1, 2, 3, 4.5, [3]uint16{6, 7, 8}}}))
	// A bool byte that is neither 0 nor 1.
	bools := Marshal([]bool{true, false})
	bools[len(bools)-1] = 2
	f.Add(bools)
	// []byte at three depths beside strings: whole, empty slices, and cut
	// inside the nested slice.
	b := blob{B: []byte("ab"), S: "str", N: [][]byte{[]byte("x"), nil, []byte("yz")}, I: []int32{7}}
	b.In.X, b.In.F = []byte("inner"), true
	blobs := Marshal([]blob{b, {S: "s"}})
	f.Add(blobs)
	f.Add(blobs[:len(blobs)-12])
	f.Add(Marshal([][]byte{[]byte("abc"), {}, []byte("d")}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// A transport delivers a frame at an 8-byte-aligned base; the fuzzer's
		// slice may sit anywhere, so both are tried.
		aligned := make([]byte, len(raw), max(len(raw), minFrameCap))
		copy(aligned, raw)
		for _, frame := range [][]byte{raw, aligned} {
			if out, err := AlignedElems[uint64](frame); err == nil && !bytes.Equal(MarshalAligned(out), frame) {
				t.Fatalf("accepted aligned uint64 part %x re-encodes to %x", frame, MarshalAligned(out))
			}
			if out, err := AlignedElems[fixedMsg](frame); err == nil && !bytes.Equal(MarshalAligned(out), frame) {
				t.Fatalf("accepted aligned fixedMsg part %x re-encodes to %x", frame, MarshalAligned(out))
			}
		}

		// The copy-run decoder and the closures accept exactly the same
		// frames, and agree on what they hold.
		c := codecFor[fixedMsg]()
		out, err := Unmarshal[fixedMsg](raw)
		if n, rest, herr := readSliceHeader(raw, c); herr == nil {
			ref := make([]fixedMsg, n+1) // +1: n may be 0
			refErr := decodeByClosures(c, rest, unsafe.Pointer(&ref[0]), n)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("copy-run decode err = %v, closure decode err = %v", err, refErr)
			}
			if err == nil && !bytes.Equal(Marshal(out), Marshal(ref[:n])) {
				t.Fatalf("copy-run and closure decodes disagree: %#v vs %#v", out, ref[:n])
			}
		} else if err == nil {
			t.Fatalf("frame with a bad header decoded: %v", herr)
		}
		if out, err := Unmarshal[int64](raw); err == nil {
			redo, err2 := Unmarshal[int64](Marshal(out))
			if err2 != nil || !reflect.DeepEqual(out, redo) {
				t.Fatalf("accepted frame not canonical: %v / %v", err2, out)
			}
		}
		if out, err := Unmarshal[msg](raw); err == nil {
			if _, err2 := Unmarshal[msg](Marshal(out)); err2 != nil {
				t.Fatalf("accepted struct frame not canonical: %v", err2)
			}
		}
		// A bool decodes only from its canonical byte, so what a bool decoder
		// accepts re-encodes to the same bytes.
		if out, err := Unmarshal[bool](raw); err == nil && !bytes.Equal(Marshal(out), raw) {
			t.Fatalf("accepted bool frame %x re-encodes to %x", raw, Marshal(out))
		}
		if out, err := AlignedElems[bool](aligned); err == nil && !bytes.Equal(MarshalAligned(out), aligned) {
			t.Fatalf("accepted aligned bool part %x re-encodes to %x", aligned, MarshalAligned(out))
		}
		if v, err := UnmarshalOne[string](raw); err == nil {
			if _, err2 := UnmarshalOne[string](MarshalOne(v)); err2 != nil {
				t.Fatalf("accepted one-frame not canonical: %v", err2)
			}
		}

		checkOwned(t, raw, blobViews)
		checkOwned(t, raw, func(v [][]byte) ([][]byte, [][]byte) { return v, nil })
		checkOwned(t, raw, func(v []byte) ([][]byte, [][]byte) { return [][]byte{v}, nil })
		checkOwned(t, raw, func(v []msg) (viewed, copied [][]byte) {
			for _, m := range v {
				copied = append(copied, unsafe.Slice(unsafe.StringData(m.S), len(m.S)))
			}
			return nil, copied
		})
	})
}
