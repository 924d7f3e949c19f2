// Package tr implements the distributed transitive reduction of Algorithm 1
// line 10, turning the overlap matrix R into the string matrix S: an edge
// (u,w) is redundant when a two-edge walk u→v→w with compatible bidirected
// directions composes to (almost) the same overhang, and can be removed
// without losing information (§2). The reduction is expressed as a sparse
// matrix computation: N = S ⊗ S under a direction-composing min-plus
// semiring, followed by an element-wise comparison of N against S, iterated
// to a fixpoint exactly like diBELLA 2D.
package tr

import (
	"repro/internal/bidir"
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
	Mul: func(c *PathMin, e1, e2 bidir.Edge) bool {
		d, ok := bidir.ComposeDirs(e1.Dir, e2.Dir)
		if !ok {
			return false
		}
		c.Min = [4]int32{inf, inf, inf, inf}
		c.Min[d] = e1.Suf + e2.Suf
		return true
	},
	MulAdd: func(c *PathMin, e1, e2 bidir.Edge) {
		if d, ok := bidir.ComposeDirs(e1.Dir, e2.Dir); ok {
			c.Min[d] = min(c.Min[d], e1.Suf+e2.Suf)
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
// removed). async runs the SUMMA SpGEMM with nonblocking panel prefetch and
// routes the mirror marks with a nonblocking all-to-all that overlaps the
// local kill-set construction; results and traffic counters are identical
// in both modes.
func Reduce(s *spmat.Dist[bidir.Edge], fuzz int32, maxIter int, async bool) Stats {
	g := s.G
	var st Stats
	for iter := 0; iter < maxIter; iter++ {
		st.Iterations = iter + 1
		var n *spmat.Dist[PathMin]
		if async {
			n = spmat.SpGEMMAsync(s, s, pathSemiring, nil, &st.Products)
		} else {
			n = spmat.SpGEMMCounted(s, s, pathSemiring, nil, &st.Products)
		}
		paths := n.BuildIndex()
		// Mark local transitive edges.
		type pair struct{ R, C int32 }
		var marked []pair
		for _, t := range s.Local.Ts {
			pm, ok := paths[int64(t.Row)<<32|int64(uint32(t.Col))]
			if !ok {
				continue
			}
			if m := pm.Min[t.Val.Dir]; m < inf && m <= t.Val.Suf+fuzz {
				marked = append(marked, pair{t.Row, t.Col})
			}
		}
		// Symmetrize the marks: an edge dies in both directions or neither,
		// so S stays a symmetric matrix. Mirrors are routed to the owner of
		// the transposed entry; the async path folds the local marks into
		// the kill set while the mirrors are still in flight.
		send := make([][]pair, g.Comm.Size())
		for _, m := range marked {
			o := g.BlockOwnerRank(int(s.NR), int(s.NC), int(m.C), int(m.R))
			send[o] = append(send[o], pair{m.C, m.R})
		}
		var req *mpi.AlltoallvRequest[pair]
		if async {
			req = mpi.IAlltoallv(g.Comm, send)
		}
		kill := make(map[int64]bool, len(marked)*2)
		for _, m := range marked {
			kill[int64(m.R)<<32|int64(uint32(m.C))] = true
		}
		var recv [][]pair
		if async {
			recv = req.WaitValue()
		} else {
			recv = mpi.Alltoallv(g.Comm, send)
		}
		for _, part := range recv {
			for _, m := range part {
				kill[int64(m.R)<<32|int64(uint32(m.C))] = true
			}
		}
		before := int64(s.Local.Nnz())
		s.Apply(func(r, c int32, v bidir.Edge) (bidir.Edge, bool) {
			return v, !kill[int64(r)<<32|int64(uint32(c))]
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
