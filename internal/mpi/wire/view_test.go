package wire

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestElemsViewsDenseAndCopiesTheRest: a dense element type comes back as a
// view of the bytes it was read from, a misaligned one is refused rather
// than copied, and a padded type round-trips through AppendElems/Elems into
// a fresh slice.
func TestElemsViewsDenseAndCopiesTheRest(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("views are a little-endian path")
	}
	src := AppendElems(make([]byte, 0, 16), []int32{7, -1, 1 << 30})
	got, err := Elems[int32](src, 3)
	if err != nil || !reflect.DeepEqual(got, []int32{7, -1, 1 << 30}) {
		t.Fatalf("Elems = %v, %v", got, err)
	}
	if unsafe.Pointer(&got[0]) != unsafe.Pointer(&src[0]) {
		t.Error("dense Elems copied instead of viewing")
	}
	if _, err := Elems[int32](src, 2); err == nil {
		t.Error("Elems accepted 12 bytes as 2 int32s")
	}
	off := make([]byte, 64)[1 : 1+len(src)] // 64 bytes: a size class aligned to 8
	copy(off, src)
	if _, err := Elems[int32](off, 3); err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Errorf("misaligned Elems: %v", err)
	}
	type padded struct {
		B bool
		V int32
	}
	in := []padded{{true, 3}, {false, -9}}
	enc := AppendElems(nil, in)
	if len(enc) != 2*Width[padded]() || Width[padded]() != 5 {
		t.Fatalf("padded encodes to %d bytes, width %d", len(enc), Width[padded]())
	}
	back, err := Elems[padded](enc, 2)
	if err != nil || !reflect.DeepEqual(back, in) {
		t.Fatalf("padded round trip: %v, %v", back, err)
	}
	if Width[string]() >= 0 {
		t.Error("string reports a fixed width")
	}
}

// TestAlignedFrame: the payload starts 8 bytes past the frame base, the
// counters charge exactly the payload, the fingerprint is checked, and a
// non-empty payload off an 8-byte boundary is refused.
func TestAlignedFrame(t *testing.T) {
	frame, payload := NewAlignedFrame[uint32](16)
	if len(frame) != 24 || &frame[8] != &payload[0] || DataLen(frame) != 16 {
		t.Fatalf("frame of %d bytes, payload at %d, DataLen %d", len(frame), len(frame)-len(payload), DataLen(frame))
	}
	if got, err := AlignedPayload[uint32](frame); err != nil || &got[0] != &payload[0] {
		t.Fatalf("AlignedPayload: %v", err)
	}
	if _, err := AlignedPayload[int64](frame); err == nil {
		t.Error("a uint32 frame decoded as int64")
	}
	if _, err := Unmarshal[byte](frame); err == nil {
		t.Error("an aligned frame decoded as a slice frame")
	}
	off := make([]byte, 64)[1 : 1+len(frame)]
	copy(off, frame)
	if _, err := AlignedPayload[uint32](off); err == nil || !strings.Contains(err.Error(), "aligned") {
		t.Errorf("misaligned frame: %v", err)
	}
	empty, _ := NewAlignedFrame[uint32](0)
	off = make([]byte, 64)[1 : 1+len(empty)]
	copy(off, empty)
	if got, err := AlignedPayload[uint32](off); err != nil || len(got) != 0 || DataLen(off) != 0 {
		t.Errorf("empty frame 1 byte off: %v, %v", got, err)
	}
}
