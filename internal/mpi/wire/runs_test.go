package wire

// The copy-run codec against its oracle. Before copy runs existed every
// non-dense type moved through the per-field closures (codec.enc / codec.dec),
// which remain the implementation for variable-length and bool-bearing types
// and for nested elements; here they are the reference: over generated
// fixed-layout shapes both paths must produce byte-identical frames and
// decode them to identical values, whatever noise sits in the padding.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// encodeByClosures is the pre-copy-run Marshal body.
func encodeByClosures(c *codec, base unsafe.Pointer, n int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		buf = c.enc(buf, unsafe.Add(base, uintptr(i)*c.memSize))
	}
	return buf
}

// decodeByClosures is the pre-copy-run Unmarshal body.
func decodeByClosures(c *codec, src []byte, base unsafe.Pointer, n int) error {
	var err error
	for i := 0; i < n; i++ {
		if src, err = c.dec(src, unsafe.Add(base, uintptr(i)*c.memSize), false); err != nil {
			return err
		}
	}
	if len(src) != 0 {
		return fmt.Errorf("%d trailing bytes", len(src))
	}
	return nil
}

var numberTypes = []reflect.Type{
	reflect.TypeOf(int8(0)), reflect.TypeOf(int16(0)), reflect.TypeOf(int32(0)), reflect.TypeOf(int64(0)),
	reflect.TypeOf(uint8(0)), reflect.TypeOf(uint16(0)), reflect.TypeOf(uint32(0)), reflect.TypeOf(uint64(0)),
	reflect.TypeOf(float32(0)), reflect.TypeOf(float64(0)), reflect.TypeOf(int(0)), reflect.TypeOf(uint(0)),
}

// randomShape generates a fixed-layout type: numbers, arrays and nested
// structs of them, with a bool leaf now and then when bools is set.
func randomShape(rng *rand.Rand, depth int, bools bool) reflect.Type {
	switch k := rng.Intn(10); {
	case depth > 0 && k < 3:
		fields := make([]reflect.StructField, 1+rng.Intn(5))
		for i := range fields {
			fields[i] = reflect.StructField{Name: fmt.Sprintf("F%d", i), Type: randomShape(rng, depth-1, bools)}
		}
		return reflect.StructOf(fields)
	case depth > 0 && k < 5:
		return reflect.ArrayOf(1+rng.Intn(4), randomShape(rng, depth-1, bools))
	case bools && k == 5:
		return reflect.TypeOf(false)
	}
	return numberTypes[rng.Intn(len(numberTypes))]
}

func hasBool(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool:
		return true
	case reflect.Array:
		return hasBool(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasBool(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// noisySlice allocates n elements of t with every byte — padding included —
// random, except that bool bytes must be 0 or 1 to be valid Go values.
func noisySlice(rng *rand.Rand, t reflect.Type, n int) (reflect.Value, unsafe.Pointer) {
	sv := reflect.MakeSlice(reflect.SliceOf(t), n, n)
	base := sv.UnsafePointer()
	rng.Read(unsafe.Slice((*byte)(base), n*int(t.Size())))
	var fix func(v reflect.Value)
	fix = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(rng.Intn(2) == 1)
		case reflect.Array, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				fix(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fix(v.Field(i))
			}
		}
	}
	if hasBool(t) {
		fix(sv)
	}
	return sv, base
}

func TestCopyRunsMatchClosures(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	withRuns := 0
	for shape := 0; shape < 400; shape++ {
		typ := reflect.StructOf([]reflect.StructField{
			{Name: "A", Type: randomShape(rng, 3, shape%4 == 0)},
			{Name: "B", Type: randomShape(rng, 3, false)},
		})
		c := compile(typ, nil)
		if c.fixed < 0 {
			t.Fatalf("%v: generated shape is not fixed-size", typ)
		}
		// Bool-bearing types are excluded from copy runs, not normalised by
		// them: their frames keep going through the closures.
		if hasBool(typ) && c.runs != nil {
			t.Fatalf("%v: bool-bearing type compiled to copy runs", typ)
		}
		if !hasBool(typ) && !c.dense && hostLittleEndian && c.runs == nil {
			t.Fatalf("%v: fixed-layout number type did not compile to copy runs", typ)
		}
		if c.runs != nil {
			withRuns++
			covered := 0
			for _, r := range c.runs {
				covered += r.n
			}
			if covered != c.fixed {
				t.Fatalf("%v: runs %v cover %d bytes, elements encode to %d", typ, c.runs, covered, c.fixed)
			}
		}
		n := 1 + rng.Intn(6)
		_, base := noisySlice(rng, typ, n)
		want := encodeByClosures(c, base, n)
		got := c.appendElems(make([]byte, 0, c.encodedLen(base, n)), base, n)
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: frame differs from the closure encoding\n  got  %x\n  want %x", typ, got, want)
		}
		// Decode both ways into differently-noised memory: equal values, and
		// re-encoding either reproduces the frame (padding stays out).
		_, viaRuns := noisySlice(rng, typ, n)
		_, viaClosures := noisySlice(rng, typ, n)
		if err := c.decodeElems(got, viaRuns, n, false); err != nil {
			t.Fatalf("%v: decode: %v", typ, err)
		}
		if err := decodeByClosures(c, got, viaClosures, n); err != nil {
			t.Fatalf("%v: closure decode: %v", typ, err)
		}
		for name, p := range map[string]unsafe.Pointer{"runs": viaRuns, "closures": viaClosures} {
			if again := c.appendElems(make([]byte, 0, len(got)), p, n); !bytes.Equal(again, want) {
				t.Fatalf("%v: re-encoding the %s decode changed the frame", typ, name)
			}
		}
		// One length check per frame: a byte short or long is rejected.
		if c.decodeElems(got[:len(got)-1], viaRuns, n, false) == nil || c.decodeElems(append(got, 0), viaRuns, n, false) == nil {
			t.Fatalf("%v: mis-sized payload decoded without error", typ)
		}
	}
	if hostLittleEndian && withRuns < 100 {
		t.Fatalf("only %d of 400 generated shapes exercised copy runs", withRuns)
	}
}

// The pipeline's hottest padded element: a matrix triple carrying a
// bidirected edge is 24 bytes in memory, 21 on the wire, two runs.
func TestCopyRunsOfEdgeTriple(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("copy runs are compiled on little-endian hosts only")
	}
	type edge struct {
		Dir            uint8
		Suf, Pre, Post int32
	}
	type triple struct {
		Row, Col int32
		Val      edge
	}
	c := codecFor[triple]()
	want := []copyRun{{mem: 0, wire: 0, n: 9}, {mem: 12, wire: 9, n: 12}}
	if !reflect.DeepEqual(c.runs, want) {
		t.Fatalf("runs = %v, want %v", c.runs, want)
	}
	in := []triple{{1, 2, edge{3, 4, 5, 6}}, {-1, -2, edge{255, -4, -5, -6}}}
	roundTrip(t, "edge-triple", in)
	if n := DataLen(Marshal(in)); n != 42 {
		t.Fatalf("DataLen = %d, want 42", n)
	}
}

// Variable-length frames are allocated once at their exact size.
func TestMarshalSizesFramesExactly(t *testing.T) {
	type rec struct {
		Seq   []byte
		Reads []int32
		Name  string
		Done  bool
	}
	in := []rec{{bytes.Repeat([]byte("ACGT"), 500), []int32{1, 2, 3}, "contig", true}, {}, {Seq: make([]byte, 70000)}}
	for name, frame := range map[string][]byte{
		"variable": Marshal(in), "bytes": Marshal(in[0].Seq), "one": MarshalOne(in[0]), "empty": Marshal([]rec{}),
	} {
		if len(frame) != cap(frame) {
			t.Errorf("%s: frame of %d bytes sits in a buffer of %d", name, len(frame), cap(frame))
		}
	}
	roundTrip(t, "rec", in)
}

func TestByteFrameAndOwnedView(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 70000} {
		frame, payload := NewByteFrame(n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		if want := Marshal(payload); !bytes.Equal(frame, want) {
			t.Fatalf("n=%d: NewByteFrame differs from Marshal", n)
		}
		view, err := UnmarshalOwned[byte](frame)
		if err != nil || !bytes.Equal(view, payload) {
			t.Fatalf("n=%d: owned view: %v", n, err)
		}
		if n > 0 && &view[0] != &payload[0] {
			t.Fatalf("n=%d: UnmarshalOwned[byte] copied the payload", n)
		}
		if cap(view) != n {
			t.Fatalf("n=%d: view has capacity %d beyond its length", n, cap(view))
		}
		cp, _ := Unmarshal[byte](frame)
		if n > 0 && &cp[0] == &payload[0] {
			t.Fatalf("n=%d: Unmarshal aliases the frame", n)
		}
	}
	// Any other element type decodes to fresh memory, owned or not.
	frame := Marshal([]int32{1, 2, 3})
	out, err := UnmarshalOwned[int32](frame)
	if err != nil || !reflect.DeepEqual(out, []int32{1, 2, 3}) {
		t.Fatalf("UnmarshalOwned[int32] = %v, %v", out, err)
	}
	frame[len(frame)-1] ^= 0xff
	if out[2] != 3 {
		t.Fatal("UnmarshalOwned[int32] aliases the frame")
	}
	// Truncated and over-long byte frames are rejected by the view path too.
	good, _ := NewByteFrame(10)
	if _, err := UnmarshalOwned[byte](good[:len(good)-1]); err == nil {
		t.Fatal("truncated byte frame accepted")
	}
	if _, err := UnmarshalOwned[byte](append(good, 0)); err == nil {
		t.Fatal("over-long byte frame accepted")
	}
}
