// Package tr implements the distributed transitive reduction of Algorithm 1
// line 10, turning the overlap matrix R into the string matrix S: an edge
// (u,w) is redundant when a two-edge walk u→v→w with compatible bidirected
// directions composes to (almost) the same overhang, and can be removed
// without losing information (§2). The reduction is expressed as a sparse
// matrix computation: N = S ⊗ S under a direction-composing min-plus
// semiring, followed by an element-wise comparison of N against S, iterated
// to a fixpoint exactly like diBELLA 2D.
//
// N and S are identically distributed and the comparison reads N only where
// S has an edge, so N is never formed in full: S's own local block is the
// output mask of the multiply ("Parallel String Graph Construction and
// Transitive Reduction" defines the step as this masked product). A two-edge
// walk u→v→w with no edge (u,w) to test — most of S² — is never multiplied,
// accumulated, emitted or merged, and the products counter counts only the
// walks that were. What comes back holds at most one entry per edge, in the
// same canonical order as S, so the comparison is a merge of two sorted
// lists and the verdicts are marks on positions of S: no hash map is built
// from either matrix.
package tr

import (
	"slices"

	"repro/internal/bidir"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// inf is the "no path" overhang.
const inf = int32(1 << 30)

// PathMin records, per composed direction, the minimum overhang over all
// two-edge walks between a vertex pair. Element-wise min is associative and
// commutative, as SUMMA accumulation requires.
type PathMin struct {
	Min [4]int32
}

// pathSemiring composes edges u→v and v→w into candidate u→w walks; walks
// whose directions do not compose are annihilated.
var pathSemiring = spmat.Semiring[bidir.Edge, bidir.Edge, PathMin]{
	Fold: func(acc *spmat.Acc[PathMin], rows []int32, vals []bidir.Edge, rowLo int32, e2 bidir.Edge) {
		vals = vals[:len(rows)] // one bounds check for the loop
		for i, r := range rows {
			d, ok := bidir.ComposeDirs(vals[i].Dir, e2.Dir)
			if !ok {
				continue
			}
			suf := vals[i].Suf + e2.Suf
			if c, live := acc.Slot(r - rowLo); live {
				c.Min[d] = min(c.Min[d], suf)
			} else {
				c.Min = [4]int32{inf, inf, inf, inf}
				c.Min[d] = suf
				acc.Claim(r - rowLo)
			}
		}
	},
	Add: func(a, b PathMin) PathMin {
		for i := range a.Min {
			a.Min[i] = min(a.Min[i], b.Min[i])
		}
		return a
	},
}

// Stats reports what the reduction did.
type Stats struct {
	Iterations   int
	EdgesRemoved int64
	Products     int64 // semiring products this rank computed (work units)
}

// Reduce removes transitive edges from s in place (collective). fuzz
// tolerates alignment-coordinate noise like miniasm's fuzz parameter;
// maxIter bounds the fixpoint loop (diBELLA iterates until no edge is
// removed). The SUMMA SpGEMM prefetches its panels; async = false puts the
// rank in blocking mode (mpi.Comm.SetBlocking) for the call, which runs the
// same schedule with every transfer inside its Wait — results and traffic
// counters are identical in both modes. S is square, so the mirror of every
// local entry lives on the transposed rank: the marks' mirrors are one
// grid.Transposed swap per iteration.
func Reduce(s *spmat.Dist[bidir.Edge], fuzz int32, maxIter int, async bool) Stats {
	g := s.G
	defer g.Comm.SetBlocking(g.Comm.SetBlocking(!async))
	var st Stats
	for iter := 0; iter < maxIter; iter++ {
		st.Iterations = iter + 1
		pat := newPattern(s)
		n := spmat.SpGEMMCounted(s, s, pathSemiring, spmat.KeepFunc(pat.has), &st.Products)
		// Merge-join N against S — both canonical, N's cells a subset of
		// S's — collecting the positions of the local transitive edges.
		ts := s.Local.Ts
		var marked []int32
		i := 0
		for _, nt := range n.Local.Ts {
			for ts[i].Col != nt.Col || ts[i].Row != nt.Row {
				i++
			}
			if m := nt.Val.Min[ts[i].Val.Dir]; m < inf && m <= ts[i].Val.Suf+fuzz {
				marked = append(marked, int32(i))
			}
		}
		// Symmetrize the marks: an edge dies in both directions or neither,
		// so S stays a symmetric matrix.
		type pair struct{ R, C int32 }
		mirrors := mpi.NewBuf[pair](len(marked))
		dead := make([]bool, len(ts))
		for k, i := range marked {
			mirrors.Elems()[k] = pair{ts[i].Col, ts[i].Row}
			dead[i] = true
		}
		for _, m := range grid.Transposed(g, mirrors) {
			if i := pat.find(m.R, m.C); i >= 0 {
				dead[i] = true
			}
		}
		before := int64(len(ts))
		next := 0
		s.Apply(func(_, _ int32, v bidir.Edge) (bidir.Edge, bool) {
			next++
			return v, !dead[next-1]
		})
		removedLocal := before - int64(s.Local.Nnz())
		removed := mpi.Allreduce(g.Comm, removedLocal, func(a, b int64) int64 { return a + b })
		st.EdgesRemoved += removed
		if removed == 0 {
			break
		}
	}
	return st
}

// pattern indexes the nonzero pattern of one rank's block of S by column:
// the triples of column j sit at positions ptr[j-colLo] to ptr[j-colLo+1] of
// the canonical list, rows ascending.
type pattern struct {
	ts           []spmat.Triple[bidir.Edge]
	rowLo, colLo int32
	ptr          []int32
	// has marks the rows of one column at a time: mark[r-rowLo] == gen says
	// (r, col) is an edge.
	mark []uint32
	gen  uint32
	col  int32
}

func newPattern(s *spmat.Dist[bidir.Edge]) *pattern {
	p := &pattern{
		ts: s.Local.Ts, rowLo: s.RowLo, colLo: s.ColLo,
		ptr:  make([]int32, s.ColHi-s.ColLo+1),
		mark: make([]uint32, s.RowHi-s.RowLo),
		col:  -1,
	}
	for _, t := range p.ts {
		p.ptr[t.Col-p.colLo+1]++
	}
	for j := 1; j < len(p.ptr); j++ {
		p.ptr[j] += p.ptr[j-1]
	}
	return p
}

// has reports whether (row, col) is an edge of the block: the output mask of
// the multiply. SpGEMM forms its output a column at a time, so the row marks
// are refreshed only when col changes — a generation bump and one pass over
// that column's few edges — and every other call is a single load.
func (p *pattern) has(row, col int32) bool {
	if col != p.col {
		p.col = col
		p.gen++ // 2^32 column changes per Reduce iteration cannot occur
		j := col - p.colLo
		for _, t := range p.ts[p.ptr[j]:p.ptr[j+1]] {
			p.mark[t.Row-p.rowLo] = p.gen
		}
	}
	return p.mark[row-p.rowLo] == p.gen
}

// find returns the position of edge (row, col) in the canonical list, or -1.
func (p *pattern) find(row, col int32) int {
	j := col - p.colLo
	lo, hi := int(p.ptr[j]), int(p.ptr[j+1])
	k, ok := slices.BinarySearchFunc(p.ts[lo:hi], row, func(t spmat.Triple[bidir.Edge], r int32) int {
		return int(t.Row) - int(r)
	})
	if !ok {
		return -1
	}
	return lo + k
}
