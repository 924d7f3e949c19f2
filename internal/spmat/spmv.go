package spmat

import (
	"repro/internal/mpi"
)

// SpMV computes y = A ⊗ x over a semiring on the 2D grid — the
// matrix-vector kernel CombBLAS-style graph algorithms (like LACC's
// hooking) are written in.
//
// Communication pattern (standard 2D SpMV):
//  1. every rank obtains x over its COLUMN range — for a square matrix this
//     is the transposed-rank exchange of Figure 2 (x is distributed like
//     all vectors, block over ranks in row-major order);
//  2. each rank multiplies its local block into partial y values for its
//     ROW range;
//  3. partials are combined across each grid row with an element-wise
//     reduction on the row communicator, and each rank keeps its vector
//     block of the result.
//
// Every partial starts live at identity, so the local pass is one in-place
// sr.MulAdd per nonzero (sr.Mul is not called); an annihilated product leaves
// the slot alone, so rows with no surviving product stay at identity.
// identity must be neutral for MulAdd's addition and for combine, which must
// be that same addition (e.g. +∞ for min, 0 for sum): the row reduction folds
// one identity-initialized partial per grid-row rank.
func SpMV[T, V, W any](a *Dist[T], x *DistVec[V], sr Semiring[T, V, W], identity W, combine func(W, W) W) *DistVec[W] {
	if int32(x.N) != a.NC {
		panic("spmat: SpMV dimension mismatch")
	}
	g := a.G
	_, colX := x.RowColGather()
	span := int(a.RowHi - a.RowLo)
	partial := make([]W, span)
	for i := range partial {
		partial[i] = identity
	}
	for _, t := range a.Local.Ts {
		sr.MulAdd(&partial[t.Row-a.RowLo], t.Val, colX[t.Col-a.ColLo])
	}
	full := mpi.AllreduceSlice(g.RowComm, partial, combine)
	// A rank's vector block always sits inside its matrix row range (the
	// package grid layout invariant), so the result block is a plain slice.
	y := NewDistVec[W](g, int(a.NR))
	lo, _ := g.MyVecRange(int(a.NR))
	copy(y.Local, full[int32(lo)-a.RowLo:int32(lo)-a.RowLo+int32(len(y.Local))])
	return y
}
