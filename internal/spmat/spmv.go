package spmat

import "slices"

// SpMV computes y = A ⊗ x over a semiring on the 2D grid — the
// matrix-vector kernel CombBLAS-style graph algorithms (like FastSV's
// hooking) are written in.
//
// Communication pattern (standard 2D SpMV):
//  1. every rank obtains x over its COLUMN range — for a square matrix this
//     is the transposed-rank exchange of Figure 2 (x is distributed like
//     all vectors, block over ranks in row-major order);
//  2. each rank multiplies its local block into partial y values for its
//     ROW range;
//  3. partials are combined across each grid row with one reduce-scatter on
//     the row communicator (reduceRows), which leaves each rank its vector
//     block of the result.
//
// The partials are an accumulator whose rows all start live at identity, so
// the local pass is one sr.Fold per column run of the block — the run's rows
// and values copied into two buffers reused across runs — each row folded in
// place; an annihilated product leaves the slot alone, so rows with no
// surviving product stay at identity. identity must be neutral for Fold's
// addition and for combine, which must be that same addition (e.g. +∞ for
// min, 0 for sum): the row reduction folds one identity-initialized partial
// per grid-row rank. The accumulator is borrowed from spmvAccs and returned
// once the reduction is done, the rank's own block of it copied out as the
// result, so a caller that multiplies once a round (FastSV) allocates it
// once, not every round.
func SpMV[T, V, W any](a *Dist[T], x *DistVec[V], sr Semiring[T, V, W], identity W, combine func(W, W) W) *DistVec[W] {
	if int32(x.N) != a.NC {
		panic("spmat: SpMV dimension mismatch")
	}
	_, colX := x.RowColGather()
	partial := borrowAcc[W](&spmvAccs, a.RowHi-a.RowLo)
	defer spmvAccs.Put(partial)
	for i := range partial.vals {
		partial.vals[i], partial.gen[i] = identity, partial.cur
	}
	ts := a.Local.Ts
	var rows []int32
	var vals []T
	for lo := 0; lo < len(ts); {
		hi := runEnd(ts, lo)
		rows, vals = slices.Grow(rows[:0], hi-lo)[:hi-lo], slices.Grow(vals[:0], hi-lo)[:hi-lo]
		for i, t := range ts[lo:hi] {
			rows[i], vals[i] = t.Row, t.Val
		}
		sr.Fold(partial, rows, vals, a.RowLo, colX[ts[lo].Col-a.ColLo])
		lo = hi
	}
	y := reduceRows(a, partial.vals, combine)
	y.Local = slices.Clone(y.Local) // the reduction hands back the rank's own block of partial
	return y
}
