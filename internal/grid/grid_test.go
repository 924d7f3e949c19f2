package grid

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/mpi/wire"
)

func TestBlockRangeCoversExactly(t *testing.T) {
	f := func(n uint16, parts uint8) bool {
		p := int(parts%32) + 1
		nn := int(n % 5000)
		prev := 0
		for i := 0; i < p; i++ {
			lo, hi := BlockRange(nn, p, i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockOwnerMatchesRange(t *testing.T) {
	f := func(n uint16, parts uint8, idx uint16) bool {
		p := int(parts%32) + 1
		nn := int(n%5000) + 1
		i := int(idx) % nn
		o := BlockOwner(nn, p, i)
		lo, hi := BlockRange(nn, p, o)
		return i >= lo && i < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowRangeEqualsUnionOfVecRanges(t *testing.T) {
	// The property the induced-subgraph row-allgather relies on: the matrix
	// row range of grid row i equals the union of vector blocks of the world
	// ranks in row i.
	for _, p := range []int{1, 4, 9, 16, 25} {
		dim := isqrt(p)
		for _, n := range []int{0, 1, 5, 97, 1000, 12345} {
			for i := 0; i < dim; i++ {
				rlo, rhi := BlockRange(n, dim, i)
				vlo, _ := BlockRange(n, p, i*dim)
				_, vhi := BlockRange(n, p, i*dim+dim-1)
				if rlo != vlo || rhi != vhi {
					t.Fatalf("P=%d n=%d row=%d: matrix [%d,%d) vs vec union [%d,%d)", p, n, i, rlo, rhi, vlo, vhi)
				}
			}
		}
	}
}

func TestGridLayoutAndComms(t *testing.T) {
	for _, p := range []int{1, 4, 9, 16} {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			err := mpi.Run(p, func(c *mpi.Comm) {
				g := New(c)
				if g.Dim*g.Dim != p {
					panic("dim wrong")
				}
				if g.Rank(g.Row, g.Col) != c.Rank() {
					panic("rank layout wrong")
				}
				// Row communicator: rank within must equal grid col.
				if g.RowComm.Rank() != g.Col || g.RowComm.Size() != g.Dim {
					panic("row comm wrong")
				}
				if g.ColComm.Rank() != g.Row || g.ColComm.Size() != g.Dim {
					panic("col comm wrong")
				}
				// Transposed rank round-trips.
				tr := g.TransposedRank()
				if tr/g.Dim != g.Col || tr%g.Dim != g.Row {
					panic("transposed rank wrong")
				}
				// Row allgather of grid cols must yield 0..dim-1.
				cols := mpi.Allgather(g.RowComm, g.Col)
				for j, v := range cols {
					if v != j {
						panic("row comm ordering wrong")
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGridRequiresSquare(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) {
		New(c)
	})
	if err == nil {
		t.Fatal("expected panic for non-square world")
	}
}

// TestRowColAndTransposed drives the Figure 2 primitives on every rank's own
// block (lengths 0..10, so some are empty, and at the lowered limit of eight
// entries the longer blocks and most rows are split). Transposed, and
// TransposedFrame on the block's aligned frame, must return the transposed
// rank's block, and a diagonal rank its own block back; RowCol must return the blocks of grid
// rows Row and Col concatenated in grid-column order. The calls run back to
// back with collectives between them on both communicators they use, so a
// tag reused across calls or a rank skipping one would cross-match or hang.
func TestRowColAndTransposed(t *testing.T) {
	blockOf := func(r, round int) []int32 {
		b := make([]int32, (r*7+round)%11)
		for k := range b {
			b[k] = int32(1000*round + 100*r + k)
		}
		return b
	}
	for _, limit := range []int64{mpi.MaxMessageBytes, 32} {
		for _, p := range []int{1, 4, 9, 16} {
			t.Run(fmt.Sprintf("MaxMessageBytes=%d/P=%d", limit, p), func(t *testing.T) {
				defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
				mpi.MaxMessageBytes = limit
				err := mpi.Run(p, func(c *mpi.Comm) {
					g := New(c)
					rowOf := func(i, round int) []int32 {
						var want []int32
						for j := 0; j < g.Dim; j++ {
							want = append(want, blockOf(g.Rank(i, j), round)...)
						}
						return want
					}
					for round := 0; round < 3; round++ {
						mine := blockOf(c.Rank(), round)
						send := mpi.NewBuf[int32](len(mine))
						copy(send.Elems(), mine)
						got := Transposed(g, send)
						if !slices.Equal(got, blockOf(g.TransposedRank(), round)) {
							panic(fmt.Sprintf("round %d: Transposed gave %v", round, got))
						}
						if g.Row == g.Col && len(mine) > 0 && &got[0] != &send.Elems()[0] {
							panic("a diagonal rank did not get its own block back")
						}
						if mpi.Allreduce(c, 1, func(a, b int) int { return a + b }) != p {
							panic("collective after Transposed mismatched")
						}
						frame := wire.MarshalAligned(mine)
						back, err := wire.AlignedElems[int32](TransposedFrame(g, frame))
						if err != nil || !slices.Equal(back, blockOf(g.TransposedRank(), round)) {
							panic(fmt.Sprintf("round %d: TransposedFrame gave %v, %v", round, back, err))
						}
						row, col := RowCol(g, mine)
						if !slices.Equal(row, rowOf(g.Row, round)) || !slices.Equal(col, rowOf(g.Col, round)) {
							panic(fmt.Sprintf("round %d: RowCol gave %v / %v", round, row, col))
						}
						mpi.Barrier(g.RowComm)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
