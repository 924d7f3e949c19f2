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
// S has an edge, so N is never formed as a matrix: S's own local block is the
// output mask of the multiply ("Parallel String Graph Construction and
// Transitive Reduction" defines the step as this masked product), and
// spmat.SpGEMMInto folds each walk straight into the cell of the edge it
// tests, one cell per edge of S, beside it in S's canonical order. A two-edge
// walk u→v→w with no edge (u,w) to test — most of S² — is never multiplied,
// and the products counter counts only the walks that were. Nothing is
// emitted, sorted or merged: the comparison is one scan of S and its cells,
// and the verdicts are marks on positions of S.
//
// The multiply reads only what the verdict reads. Its operand is a packed
// view of S, one dense 4-byte word a value (direction and overhang; Pre and
// Post stay in S's block), so its panels are views of their frames. A cell
// holds its edge's direction and the least overhang over the walks whose
// composed direction is that one, the one the comparison looks up; the
// semiring annihilates a walk of any other.
package tr

import (
	"fmt"
	"slices"

	"repro/internal/bidir"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// inf is the "no path" overhang, and the bound every packed overhang stays
// under: two of them sum below 2³¹, so a walk's overhang never overflows.
const inf = int32(1 << 30)

// packed is the value S's SUMMA panels carry: an edge's direction in the two
// high bits and its overhang (Suf) below, all the semiring reads of an edge.
// The type is dense, so a panel is a view of the frame it crosses the wire
// in: four bytes a value, no encode and no decode copy. Pre and Post stay in
// S's own block, which the multiply never reads.
type packed uint32

// pack packs edge (row, col) of S. An overhang outside [0, inf), or a
// direction above 3, has no packed form and panics naming the edge.
func pack(row, col int32, e bidir.Edge) packed {
	if e.Suf < 0 || e.Suf >= inf || e.Dir > 3 {
		panic(fmt.Sprintf("tr: edge (%d,%d) %+v cannot be packed: its overhang must lie in [0, 2^30) and its direction in [0, 3]", row, col, e))
	}
	return packed(uint32(e.Dir)<<30 | uint32(e.Suf))
}

func (p packed) dir() uint8 { return uint8(p >> 30) }
func (p packed) suf() int32 { return int32(p & packed(inf-1)) }

// packView returns the packed view of s, the multiply's operand: s's triples
// with packed values, written into buf, which must hold len(s.Local.Ts).
func packView(s *spmat.Dist[bidir.Edge], buf []spmat.Triple[packed]) *spmat.Dist[packed] {
	ts := buf[:len(s.Local.Ts)]
	for i, t := range s.Local.Ts {
		ts[i] = spmat.Triple[packed]{Row: t.Row, Col: t.Col, Val: pack(t.Row, t.Col, t.Val)}
	}
	return &spmat.Dist[packed]{
		G: s.G, NR: s.NR, NC: s.NC,
		RowLo: s.RowLo, RowHi: s.RowHi, ColLo: s.ColLo, ColHi: s.ColHi,
		Local: spmat.COO[packed]{NR: s.NR, NC: s.NC, Ts: ts},
	}
}

// Stats reports what the reduction did.
type Stats struct {
	Iterations   int
	EdgesRemoved int64
	Products     int64 // semiring products this rank computed (work units)
}

// cell is one edge's entry of N = S ⊗ S, the only kind the verdict reads:
// the direction of S's own edge there, and the least overhang over the walks
// that compose to it, inf while none has.
type cell struct {
	Suf int32
	Dir uint8
}

// walks folds walks u→v→w of S's packed view into the cell of S's own edge
// (u,w): a walk whose directions compose to that edge's direction lowers the
// cell's overhang to its own, and any other — one whose directions do not
// compose, or compose to another direction — is annihilated. SpGEMMInto
// hands Fold only rows with an edge in the output column, whose slots are
// live and hold that edge's cell, and never calls Add.
var walks = spmat.Semiring[packed, packed, cell]{
	Fold: func(acc *spmat.Acc[cell], rows []int32, vals []packed, rowLo int32, e2 packed) {
		vals = vals[:len(rows)] // one bounds check for the loop
		for i, r := range rows {
			c, _ := acc.Slot(r - rowLo)
			if d, ok := bidir.ComposeDirs(vals[i].dir(), e2.dir()); ok && d == c.Dir {
				c.Suf = min(c.Suf, vals[i].suf()+e2.suf())
			}
		}
	},
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
	pat := newPattern(s)
	// S only shrinks, so buffers sized by its first block never grow.
	buf := make([]spmat.Triple[packed], len(s.Local.Ts))
	cells := make([]cell, len(s.Local.Ts))
	marked := make([]int32, 0, len(s.Local.Ts))
	dead := make([]bool, len(s.Local.Ts))
	for iter := 0; iter < maxIter; iter++ {
		st.Iterations = iter + 1
		ts := s.Local.Ts
		pat.index(ts)
		view := packView(s, buf)
		cells = cells[:len(ts)]
		for i, t := range ts {
			cells[i] = cell{Suf: inf, Dir: t.Val.Dir}
		}
		spmat.SpGEMMInto(view, view, walks, view, cells, &st.Products)
		// The verdict: cells[i] is edge ts[i]'s, so the local transitive edges
		// are one scan.
		marked = marked[:0]
		for i, c := range cells {
			if c.Suf < inf && c.Suf <= ts[i].Val.Suf+fuzz {
				marked = append(marked, int32(i))
			}
		}
		// Symmetrize the marks: an edge dies in both directions or neither,
		// so S stays a symmetric matrix.
		type pair struct{ R, C int32 }
		mirrors := mpi.NewBuf[pair](len(marked))
		dead = dead[:len(ts)]
		clear(dead)
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

// pattern indexes the nonzero pattern of one rank's block of S by column, so
// that a mirror's position is found by one binary search: the triples of column j sit at
// positions ptr[j-colLo] to ptr[j-colLo+1] of the canonical list, rows
// ascending. One pattern serves every iteration of a Reduce; index points it
// at the iteration's block.
type pattern struct {
	ts    []spmat.Triple[bidir.Edge]
	colLo int32
	ptr   []int32
}

func newPattern(s *spmat.Dist[bidir.Edge]) *pattern {
	return &pattern{colLo: s.ColLo, ptr: make([]int32, s.ColHi-s.ColLo+1)}
}

// index points the pattern at ts, the block's canonical triples.
func (p *pattern) index(ts []spmat.Triple[bidir.Edge]) {
	p.ts = ts
	clear(p.ptr)
	for _, t := range ts {
		p.ptr[t.Col-p.colLo+1]++
	}
	for j := 1; j < len(p.ptr); j++ {
		p.ptr[j] += p.ptr[j-1]
	}
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
