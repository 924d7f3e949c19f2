// Package grid organizes the P simulated ranks into the √P × √P process
// grid that ELBA (via CombBLAS) uses for its 2D matrix decomposition, and
// provides the block-range arithmetic shared by matrices and vectors.
//
// Ranks are laid out row-major: world rank r sits at grid position
// (r / √P, r % √P). Vectors of length n are block-distributed across all P
// ranks in world-rank order. With the balanced block formula used here, the
// union of the vector blocks owned by the ranks of grid row i is exactly the
// matrix row range of grid row i — the property the paper's induced-subgraph
// algorithm exploits when it allgathers the assignment vector over the row
// communicator (Figure 2).
package grid

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
)

// Grid is one rank's view of the √P × √P process grid.
type Grid struct {
	Comm *mpi.Comm // the full communicator (all P ranks)
	Dim  int       // √P
	Row  int       // this rank's grid row
	Col  int       // this rank's grid column

	// RowComm connects the ranks of this grid row (rank within = grid col).
	RowComm *mpi.Comm
	// ColComm connects the ranks of this grid column (rank within = grid row).
	ColComm *mpi.Comm
}

// New builds the grid; the communicator size must be a perfect square
// (the paper's rank counts 576..4096 all are).
func New(c *mpi.Comm) *Grid {
	p := c.Size()
	dim := isqrt(p)
	if dim*dim != p {
		panic(fmt.Sprintf("grid: communicator size %d is not a perfect square", p))
	}
	row, col := c.Rank()/dim, c.Rank()%dim
	g := &Grid{Comm: c, Dim: dim, Row: row, Col: col}
	g.RowComm = c.Split(row, col)
	g.ColComm = c.Split(col, row)
	return g
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Rank returns the world rank of grid position (i, j).
func (g *Grid) Rank(i, j int) int { return i*g.Dim + j }

// TransposedRank returns the world rank of the grid-transposed position,
// the partner of Transposed.
func (g *Grid) TransposedRank() int { return g.Rank(g.Col, g.Row) }

// RowCol is the exchange of the paper's Figure 2 (collective): block is
// all-gathered over this grid row, so row is the row's blocks concatenated
// in grid-column order, and row is then swapped with the transposed rank
// (Transposed), so col is the row of grid row Col. For data block-distributed
// over the world in rank order — reads, vectors — row covers this rank's
// matrix row range and col its column range. Every message goes through the
// chunked protocol, so none exceeds mpi.MaxMessageBytes (T must be
// fixed-width). row never aliases block, and stays the caller's: it is
// copied once into the swap's frame; on the diagonal col is row.
func RowCol[T any](g *Grid, block []T) (row, col []T) {
	row = slices.Concat(mpi.Allgatherv(g.RowComm, block)...)
	return row, Transposed(g, mpi.BufOf(row))
}

// Transposed swaps block with the rank at the transposed grid position
// (collective) and returns the partner's block, chunked like RowCol. Passing
// block gives it away (see mpi.Buf): a dense block filled in a mpi.NewBuf
// crosses uncopied. A diagonal rank is its own partner and gets block's
// elements back.
func Transposed[T any](g *Grid, block mpi.Buf[T]) []T {
	tag := mpi.ReserveTag(g.Comm) // on the diagonal too: tags follow the call order
	if g.Row == g.Col {
		return block.Elems()
	}
	partner := g.TransposedRank()
	mpi.SendBuf(g.Comm, partner, tag, block)
	return mpi.RecvChunked[T](g.Comm, partner, tag)
}

// TransposedFrame is Transposed for an encoded frame its receiver decodes
// itself, such as a SUMMA panel: the frame crosses as one hop of a broadcast
// does (mpi.SwapFrame) — verbatim when it fits mpi.MaxMessageBytes — and the
// partner's frame comes back as it was sent. A diagonal rank gets frame back.
func TransposedFrame(g *Grid, frame []byte) []byte {
	tag := mpi.ReserveTag(g.Comm)
	if g.Row == g.Col {
		return frame
	}
	return mpi.SwapFrame(g.Comm, g.TransposedRank(), tag, frame)
}

// BlockRange splits n elements into parts balanced blocks and returns the
// half-open range [lo, hi) of block idx.
func BlockRange(n, parts, idx int) (lo, hi int) {
	return idx * n / parts, (idx + 1) * n / parts
}

// BlockOwner returns which of parts balanced blocks owns element idx.
func BlockOwner(n, parts, idx int) int {
	if n == 0 {
		return 0
	}
	// Initial guess, then correct for integer-division rounding.
	o := idx * parts / n
	for {
		lo, hi := BlockRange(n, parts, o)
		if idx < lo {
			o--
		} else if idx >= hi {
			o++
		} else {
			return o
		}
	}
}

// MyRowRange returns this rank's global row range for an n-row matrix.
func (g *Grid) MyRowRange(n int) (lo, hi int) { return BlockRange(n, g.Dim, g.Row) }

// MyColRange returns this rank's global column range for an n-col matrix.
func (g *Grid) MyColRange(n int) (lo, hi int) { return BlockRange(n, g.Dim, g.Col) }

// MyVecRange returns this rank's block of an n-vector.
func (g *Grid) MyVecRange(n int) (lo, hi int) { return BlockRange(n, g.Comm.Size(), g.Comm.Rank()) }

// VecOwner returns the world rank owning element idx of an n-vector.
func (g *Grid) VecOwner(n, idx int) int { return BlockOwner(n, g.Comm.Size(), idx) }

// BlockOwnerRank returns the world rank owning matrix entry (r, c) of an
// nr × nc matrix.
func (g *Grid) BlockOwnerRank(nr, nc, r, c int) int {
	return g.Rank(BlockOwner(nr, g.Dim, r), BlockOwner(nc, g.Dim, c))
}
