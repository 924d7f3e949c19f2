package kmer

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/spmat"
)

// TestOccurRoundTrip: position and strand survive the packing at both ends of
// the 31-bit position lane, integer order of the word is (Pos, forward before
// reverse complement), and a triple carrying it has no padding.
func TestOccurRoundTrip(t *testing.T) {
	positions := []int32{0, 1, 2, math.MaxInt32 - 1, math.MaxInt32}
	var prev Occur
	for i, pos := range positions {
		for _, rc := range []bool{false, true} {
			o := MakeOccur(pos, rc)
			if o.Pos() != pos || o.RC() != rc {
				t.Fatalf("MakeOccur(%d, %v) = %#x reads back as (%d, %v)", pos, rc, uint32(o), o.Pos(), o.RC())
			}
			if (i > 0 || rc) && o <= prev {
				t.Fatalf("MakeOccur(%d, %v) = %#x does not sort after %#x", pos, rc, uint32(o), uint32(prev))
			}
			prev = o
		}
	}
	if got := reflect.TypeOf(ATriple{}).Size(); got != 12 {
		t.Fatalf("ATriple is %d bytes, want 12 (Row, Col, Occur with no padding)", got)
	}
	if reflect.TypeOf(ATriple{}) != reflect.TypeOf(spmat.Triple[Occur]{}) {
		t.Fatal("ATriple is no longer the matrix triple: DetectCandidates would need a conversion copy again")
	}
}

// TestAssembleRowMajorMatchesComparatorSort: the counting scatter by read plus
// per-read integer sort emits exactly what appending in reply order and
// comparator-sorting by (Row, Col) did — on random reply shapes with misses,
// empty parts, reads with no survivor and an empty read range.
func TestAssembleRowMajorMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(50)
		hi := lo + rng.Intn(12)
		nParts := 1 + rng.Intn(5)
		meta := make([][]occRec, nParts)
		cols := make([][]int32, nParts)
		for read := lo; read < hi; read++ {
			// Distinct columns per read, as Extract's dedup guarantees.
			for _, col := range rng.Perm(40)[:rng.Intn(20)] {
				r := rng.Intn(nParts)
				meta[r] = append(meta[r], occRec{Read: int32(read), Occ: MakeOccur(rng.Int31(), rng.Intn(2) == 1)})
				if rng.Intn(3) == 0 {
					col = -1
				}
				cols[r] = append(cols[r], int32(col))
			}
		}
		got, want := assembleRowMajor(lo, hi, meta, cols), assembleSorted(meta, cols)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reads [%d,%d), %d parts:\n got %v\nwant %v", trial, lo, hi, nParts, got, want)
		}
		if err := spmat.CheckRowMajor(got, int32(lo), int32(hi), 0, 40); err != nil {
			t.Fatalf("trial %d: emission is not strictly row-major: %v", trial, err)
		}
	}
}
