package fasta

import (
	"fmt"
	"sort"

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

// Fetch retrieves the sequences of arbitrary global read ids (collective:
// every rank must call it, possibly with an empty request). Duplicate ids are
// allowed. The result maps each requested id to its sequence.
//
// Implementation: request ids go to their owners with one Alltoallv; owners
// answer with a second Alltoallv whose byte payload is chunk-limited like all
// sequence traffic.
func (s *DistStore) Fetch(ids []int) map[int][]byte {
	p := s.Comm.Size()
	// Deduplicate and route requests.
	uniq := make([]int, 0, len(ids))
	seen := make(map[int]struct{}, len(ids))
	for _, g := range ids {
		if _, ok := seen[g]; ok {
			continue
		}
		seen[g] = struct{}{}
		uniq = append(uniq, g)
	}
	sort.Ints(uniq)
	req := make([][]int64, p)
	for _, g := range uniq {
		o := s.Owner(g)
		req[o] = append(req[o], int64(g))
	}
	got := mpi.Alltoallv(s.Comm, req)
	// Serve: for every requester, the concatenated bytes, packed straight
	// into a frame sized from the lengths.
	respBuf := make([]mpi.ByteBuf, p)
	for r := 0; r < p; r++ {
		respBuf[r] = mpi.NewByteBuf(s.totalLen(got[r]))
		dst := respBuf[r].Bytes()
		for _, g64 := range got[r] {
			dst = dst[copy(dst, s.Get(int(g64))):]
		}
	}
	back := mpi.AlltoallvBytes(s.Comm, respBuf)
	out := make(map[int][]byte, len(uniq))
	for r := 0; r < p; r++ {
		lens := make([]int32, len(req[r]))
		for i, g64 := range req[r] {
			lens[i] = s.Lens[g64]
		}
		source := fmt.Sprintf("rank %d answering for no reads", r)
		if n := len(req[r]); n > 0 {
			source = fmt.Sprintf("rank %d answering for %d reads, ids %d…%d", r, n, req[r][0], req[r][n-1])
		}
		for i, seq := range unflatten(back[r], lens, source) {
			out[int(req[r][i])] = seq
		}
	}
	return out
}

// totalLen sums the replicated lengths of the given read ids.
func (s *DistStore) totalLen(ids []int64) int {
	total := 0
	for _, g := range ids {
		total += int(s.Lens[g])
	}
	return total
}

// Len returns the length of any read (lengths are replicated).
func (s *DistStore) Len(g int) int { return int(s.Lens[g]) }

// RowColSequences implements diBELLA's sequence exchange for the alignment
// stage: every rank obtains the sequences of all reads in its matrix ROW
// range and COLUMN range. Because reads are block-distributed in world-rank
// order, the reads of grid row i live exactly on the ranks of grid row i, so
// an Allgatherv on the row communicator yields the row-range sequences; the
// column-range sequences then come from the transposed rank, the same
// pattern as the induced-subgraph assignment exchange (Figure 2).
//
// Returned slices are indexed from the row/column range start of an n×n
// matrix with n = s.N. Collective.
func (s *DistStore) RowColSequences(g *grid.Grid) (rowSeqs, colSeqs [][]byte) {
	// Flatten local reads into one buffer, sized first, so traffic counters
	// see volume.
	total := 0
	for _, seq := range s.Seqs {
		total += len(seq)
	}
	flat := make([]byte, 0, total)
	for _, seq := range s.Seqs {
		flat = append(flat, seq...)
	}
	rowFlat, _ := mpi.AllgathervFlat(g.RowComm, flat)
	rowLo, rowHi := g.MyRowRange(s.N)
	rowSeqs = unflatten(rowFlat, s.Lens[rowLo:rowHi], fmt.Sprintf("row communicator, reads %d…%d", rowLo, rowHi-1))

	if g.Row == g.Col {
		colSeqs = rowSeqs
		return rowSeqs, colSeqs
	}
	partner := g.TransposedRank()
	const tag = 0x5e9 // arbitrary private tag for this exchange pattern
	mpi.SendChunked(g.Comm, partner, tag, rowFlat)
	colFlat := mpi.RecvChunked[byte](g.Comm, partner, tag)
	colLo, colHi := g.MyColRange(s.N)
	colSeqs = unflatten(colFlat, s.Lens[colLo:colHi], fmt.Sprintf("transposed rank %d, reads %d…%d", partner, colLo, colHi-1))
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
