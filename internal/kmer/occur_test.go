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

// TestEmitFollowsStream: the walk of the occurrence stream with one cursor
// per owner emits exactly the survivors appended in stream order — no sort,
// so the order is pinned as well as the set — in one buffer of exactly their
// count, row-grouped with distinct columns per read (what spmat.FromRows
// takes). Random streams over one to five owners with misses, owners sent
// nothing, spans with unread slack (the windows a read's scan did not fill),
// reads with no occurrence, reads with no survivor and an empty read range,
// over column counts of 0 and 1 (every reply a miss, one column at most per
// read), 40, and up to 2²⁴.
func TestEmitFollowsStream(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, numCols := range []int{0, 1, 40, 1 << 16, 3 << 16, 1 << 24} {
		for trial := 0; trial < 100; trial++ {
			lo := rng.Intn(50)
			nReads := rng.Intn(12)
			p := 1 + rng.Intn(5)
			s := &stream{start: make([]int, nReads+1), end: make([]int, nReads)}
			cols := make([][]int32, p)
			want := []ATriple{}
			for i := range nReads {
				// Distinct columns per read, as the scan's dedup guarantees;
				// a quarter of the reads keep no survivor at all, and with no
				// columns every k-mer misses.
				lost := numCols == 0 || rng.Intn(4) == 0
				for _, col := range distinctCols(rng, cmp.Or(numCols, 40), rng.Intn(20)) {
					o, occ := rng.Intn(p), MakeOccur(rng.Int31(), rng.Intn(2) == 1)
					s.own, s.occ = append(s.own, uint16(o)), append(s.occ, occ)
					if lost || rng.Intn(3) == 0 {
						col = -1
					} else {
						want = append(want, ATriple{Row: int32(lo + i), Col: col, Val: occ})
					}
					cols[o] = append(cols[o], col)
				}
				s.end[i] = len(s.occ)
				for range rng.Intn(3) { // slack the walk must not read
					s.own, s.occ = append(s.own, uint16(rng.Uint32())), append(s.occ, Occur(rng.Uint32()))
				}
				s.start[i+1] = len(s.occ)
			}
			got := s.emit(lo, cols)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("numCols %d trial %d: reads [%d,%d), %d owners:\n got %v\nwant %v", numCols, trial, lo, lo+nReads, p, got, want)
			}
			if cap(got) != len(want) {
				t.Fatalf("numCols %d trial %d: %d triples in a buffer of %d", numCols, trial, len(got), cap(got))
			}
			if err := spmat.CheckRowGrouped(got, int32(lo), int32(lo+nReads), 0, int32(numCols)); err != nil {
				t.Fatalf("numCols %d trial %d: emission is not row-grouped: %v", numCols, trial, err)
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
