package wire_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/kmer"
	"repro/internal/mpi/wire"
	"repro/internal/spmat"
)

// TestKmerMatrixTriplesAreDense: every exchange and checkpoint of the
// |reads| × |k-mers| matrix rides the bulk-copy path because its triple is 12
// unpadded bytes, and its SUMMA panels' values are views of the received
// frame because Occur is dense. A field that pads the triple or a bool inside
// Occur would silently fall back to copy runs or per-field closures (and the
// panels to a decoded copy); fail here instead.
func TestKmerMatrixTriplesAreDense(t *testing.T) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("bulk copy is a little-endian path")
	}
	if !wire.Dense[kmer.Occur]() {
		t.Error("kmer.Occur does not compile to the dense codec path")
	}
	if !wire.Dense[kmer.ATriple]() {
		t.Error("kmer.ATriple does not compile to the dense codec path")
	}
	if !wire.Dense[spmat.Triple[kmer.Occur]]() {
		t.Error("spmat.Triple[kmer.Occur] does not compile to the dense codec path")
	}
	ts := []kmer.ATriple{{Row: 3, Col: 7, Val: kmer.MakeOccur(41, true)}, {Row: 4, Col: 0, Val: kmer.MakeOccur(0, false)}}
	frame := wire.Marshal(ts)
	if got := wire.DataLen(frame); got != 24 {
		t.Errorf("two triples encode to %d payload bytes, want 24", got)
	}
	back, err := wire.Unmarshal[spmat.Triple[kmer.Occur]](frame)
	if err != nil || len(back) != 2 || back[0] != ts[0] || back[1] != ts[1] {
		t.Errorf("round trip: %v, %v", back, err)
	}
	// The contrast that makes the assertion meaningful: a bool-bearing element
	// of the old shape is not dense.
	type oldOccur struct {
		Pos int32
		RC  bool
	}
	if wire.Dense[spmat.Triple[oldOccur]]() {
		t.Error("a padded, bool-bearing triple reports dense: the probe is broken")
	}
}
