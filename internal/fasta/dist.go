package fasta

import (
	"fmt"
	"slices"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// DistStore is the block-distributed read store: world rank r owns the
// contiguous read-id range grid.BlockRange(n, P, r). Read lengths are
// replicated everywhere (they are a few bytes per read and every pipeline
// stage needs them); the sequences themselves live only on their owner.
type DistStore struct {
	Comm *mpi.Comm
	N    int      // total number of reads
	Lo   int      // first read id owned by this rank
	Hi   int      // one past the last read id owned
	Seqs [][]byte // Seqs[i] is read Lo+i
	Lens []int32  // global, replicated: Lens[g] = len of read g
}

// FromGlobal builds the store when every rank can deterministically produce
// the full read set (e.g. a seeded simulator): each rank keeps only its
// block. No communication.
func FromGlobal(c *mpi.Comm, all [][]byte) *DistStore {
	n := len(all)
	lo, hi := grid.BlockRange(n, c.Size(), c.Rank())
	seqs := make([][]byte, hi-lo)
	for i := range seqs {
		seqs[i] = all[lo+i]
	}
	lens := make([]int32, n)
	for g, s := range all {
		lens[g] = int32(len(s))
	}
	return &DistStore{Comm: c, N: n, Lo: lo, Hi: hi, Seqs: seqs, Lens: lens}
}

// Owns reports whether this rank owns read g.
func (s *DistStore) Owns(g int) bool { return g >= s.Lo && g < s.Hi }

// Get returns the sequence of a locally owned read.
func (s *DistStore) Get(g int) []byte {
	if !s.Owns(g) {
		panic(fmt.Sprintf("fasta: rank %d asked locally for read %d outside [%d,%d)", s.Comm.Rank(), g, s.Lo, s.Hi))
	}
	return s.Seqs[g-s.Lo]
}

// Owner returns the rank owning read g.
func (s *DistStore) Owner(g int) int { return grid.BlockOwner(s.N, s.Comm.Size(), g) }

// Len returns the length of any read (lengths are replicated).
func (s *DistStore) Len(g int) int { return int(s.Lens[g]) }

// RowColSequences implements diBELLA's sequence exchange for the alignment
// stage: every rank obtains the sequences of all reads in its matrix ROW
// range and COLUMN range. Because reads are block-distributed in world-rank
// order, the reads of grid row i live exactly on the ranks of grid row i, so
// the Figure 2 exchange of the rank's concatenated block (grid.RowCol) yields
// both: the row gather the row-range sequences, the swap with the transposed
// rank the column-range ones. Both halves are chunked, so no message exceeds
// mpi.MaxMessageBytes however many bases a rank holds.
//
// Returned slices are indexed from the row/column range start of an n×n
// matrix with n = s.N. Collective.
func (s *DistStore) RowColSequences(g *grid.Grid) (rowSeqs, colSeqs [][]byte) {
	rowFlat, colFlat := grid.RowCol(g, slices.Concat(s.Seqs...))
	rowLo, rowHi := g.MyRowRange(s.N)
	rowSeqs = unflatten(rowFlat, s.Lens[rowLo:rowHi], fmt.Sprintf("row communicator, reads %d…%d", rowLo, rowHi-1))
	if g.Row == g.Col {
		return rowSeqs, rowSeqs
	}
	colLo, colHi := g.MyColRange(s.N)
	colSeqs = unflatten(colFlat, s.Lens[colLo:colHi], fmt.Sprintf("transposed rank %d, reads %d…%d", g.Rank(g.Col, g.Row), colLo, colHi-1))
	return rowSeqs, colSeqs
}

// unflatten splits a concatenated buffer back into per-read slices. The
// buffer must hold exactly what the lengths demand — checked before anything
// is sliced, so a short or long buffer panics naming its source, not as an
// anonymous slice-bounds error or not at all.
func unflatten(flat []byte, lens []int32, source string) [][]byte {
	want := 0
	for _, l := range lens {
		want += int(l)
	}
	if want != len(flat) {
		panic(fmt.Sprintf("fasta: sequence buffer from %s has %d bytes, lengths demand %d", source, len(flat), want))
	}
	out := make([][]byte, len(lens))
	off := 0
	for i, l := range lens {
		out[i] = flat[off : off+int(l) : off+int(l)]
		off += int(l)
	}
	return out
}
