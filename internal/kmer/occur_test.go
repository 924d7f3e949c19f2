package kmer

import (
	"cmp"
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

// TestAssembleRowMajorMatchesComparatorSort: the counting passes over column
// digits and the stable scatter by read emit exactly what appending in reply
// order and comparator-sorting by (Row, Col) did — on random reply shapes
// with misses, empty parts, reads with no survivor and an empty read range,
// over column counts of 0 and 1 (every reply a miss, one column at most per
// read), up to exactly one 16-bit digit (40 and 2¹⁶), and past it (3·2¹⁶ and
// 2²⁴) so the second digit pass runs.
func TestAssembleRowMajorMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, numCols := range []int{0, 1, 40, 1 << 16, 3 << 16, 1 << 24} {
		for trial := 0; trial < 100; trial++ {
			lo := rng.Intn(50)
			hi := lo + rng.Intn(12)
			nParts := 1 + rng.Intn(5)
			meta := make([][]occRec, nParts)
			cols := make([][]int32, nParts)
			for read := lo; read < hi; read++ {
				// Distinct columns per read, as Extract's dedup guarantees; a
				// quarter of the reads keep no survivor at all, and with no
				// columns every k-mer misses.
				lost := numCols == 0 || rng.Intn(4) == 0
				for _, col := range distinctCols(rng, cmp.Or(numCols, 40), rng.Intn(20)) {
					r := rng.Intn(nParts)
					meta[r] = append(meta[r], occRec{Read: int32(read), Occ: MakeOccur(rng.Int31(), rng.Intn(2) == 1)})
					if lost || rng.Intn(3) == 0 {
						col = -1
					}
					cols[r] = append(cols[r], col)
				}
			}
			got, want := assembleRowMajor(lo, hi, meta, cols), assembleSorted(meta, cols)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("numCols %d trial %d: reads [%d,%d), %d parts:\n got %v\nwant %v", numCols, trial, lo, hi, nParts, got, want)
			}
			if err := spmat.CheckRowMajor(got, int32(lo), int32(hi), 0, int32(numCols)); err != nil {
				t.Fatalf("numCols %d trial %d: emission is not strictly row-major: %v", numCols, trial, err)
			}
		}
	}
}

// distinctCols draws min(n, numCols) distinct column ids below numCols, in
// random order.
func distinctCols(rng *rand.Rand, numCols, n int) []int32 {
	seen := make(map[int32]bool, n)
	var cols []int32
	for len(cols) < min(n, numCols) {
		if col := int32(rng.Intn(numCols)); !seen[col] {
			seen[col] = true
			cols = append(cols, col)
		}
	}
	return cols
}
