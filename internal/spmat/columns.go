package spmat

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
)

// Columns is one block of a matrix's columns, [Lo, Hi), held in the layout
// of a split panel, the checkerboard's: column Lo+c's entries are
// Rows[Starts[c]:Starts[c+1]] with Vals beside them, its even rows first,
// ascending, then, from Mid[c], its odd rows, ascending. ColumnProduct
// multiplies it where it lies, with no copy into a panel.
type Columns[T any] struct {
	Lo, Hi int32
	Starts []int32 // Hi−Lo+1 run bounds
	Mid    []int32 // Hi−Lo starts of the odd sub-runs
	Rows   []int32
	Vals   []T
}

// Nnz returns the block's number of entries.
func (a Columns[T]) Nnz() int { return len(a.Rows) }

// ColumnsFromTriples lays out the columns [lo, hi) that ts holds, strictly
// column-major inside them, by one stable counting scatter by (column, row
// parity). Triples that are not so panic.
func ColumnsFromTriples[T any](lo, hi int32, ts []Triple[T]) Columns[T] {
	if err := CheckColMajor(ts, 0, 1<<31-1, lo, hi); err != nil {
		panic(fmt.Sprintf("spmat: ColumnsFromTriples: %v", err))
	}
	n := hi - lo
	next := make([]int32, 2*n+1) // by (column, parity), shifted one up
	for _, t := range ts {
		next[(t.Col-lo)<<1|t.Row&1+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	a := Columns[T]{Lo: lo, Hi: hi, Starts: make([]int32, n+1), Mid: make([]int32, n),
		Rows: make([]int32, len(ts)), Vals: make([]T, len(ts))}
	for c := range n {
		a.Starts[c], a.Mid[c] = next[2*c], next[2*c+1]
	}
	a.Starts[n] = int32(len(ts))
	for _, t := range ts {
		k := (t.Col-lo)<<1 | t.Row&1
		a.Rows[next[k]], a.Vals[next[k]] = t.Row, t.Val
		next[k]++
	}
	return a
}

// Triples returns the block's entries as triples, strictly column-major:
// each column's two sub-runs merged by row.
func (a Columns[T]) Triples() []Triple[T] {
	ts := make([]Triple[T], 0, len(a.Rows))
	for c := range a.Hi - a.Lo {
		col := a.Lo + c
		e, o, hi := a.Starts[c], a.Mid[c], a.Starts[c+1]
		for mid := o; e < mid || o < hi; {
			i := o
			if o == hi || e < mid && a.Rows[e] < a.Rows[o] {
				i, e = e, e+1
			} else {
				o++
			}
			ts = append(ts, Triple[T]{Row: a.Rows[i], Col: col, Val: a.Vals[i]})
		}
	}
	return ts
}

// Check reports the first thing about the block that is not a split panel
// of its columns over rows [0, nr): run bounds that do not open at 0, go
// backwards or end off the entries, a mid outside its run, or a sub-run whose
// rows do not strictly ascend inside [0, nr) with its parity. ColumnProduct
// runs it on every block it multiplies, and a checkpoint loader on every
// block it restores; it never panics, whatever the block holds.
func (a Columns[T]) Check(nr int32) error {
	n := int(a.Hi - a.Lo)
	if n < 0 || len(a.Starts) != n+1 || len(a.Mid) != n || len(a.Vals) != len(a.Rows) {
		return fmt.Errorf("columns [%d,%d) with %d run bounds, %d mids, %d rows and %d values", a.Lo, a.Hi, len(a.Starts), len(a.Mid), len(a.Rows), len(a.Vals))
	}
	if a.Starts[0] != 0 || int(a.Starts[n]) != len(a.Rows) {
		return fmt.Errorf("column runs span [%d,%d), want [0,%d)", a.Starts[0], a.Starts[n], len(a.Rows))
	}
	for c := range n {
		lo, mid, hi := a.Starts[c], a.Mid[c], a.Starts[c+1]
		if lo > mid || mid > hi {
			return fmt.Errorf("column %d splits at %d outside its run [%d,%d)", a.Lo+int32(c), mid, lo, hi)
		}
		if int(hi) > len(a.Rows) {
			return fmt.Errorf("column %d's run [%d,%d) ends past the %d entries", a.Lo+int32(c), lo, hi, len(a.Rows))
		}
		if err := checkRun("column block", a.Rows[lo:mid], a.Lo+int32(c), 0, 0, nr); err != nil {
			return err
		}
		if err := checkRun("column block", a.Rows[mid:hi], a.Lo+int32(c), 1, 0, nr); err != nil {
			return err
		}
	}
	return nil
}

// ColumnProduct is one rank's partial of C = A ⊗ Aᵀ under the Checkerboard
// mask, formed from a block of A's columns alone, with no communication: a
// holds every entry of those columns, of nr rows — a block that is not a
// split panel of them (Columns) panics naming the rank. The partial holds
// every cell those columns reach, column-major, each valued by the products
// of those columns alone: gustavson.multiply multiplies the block, read
// where it lies as its split panel, with its transpose (transposePanel), as
// one SUMMA round would. The mask is a function of the cell, so over ranks
// whose blocks partition A's columns every product of C is formed exactly
// once, by the rank that holds its column, and their partials merged with
// sr.Add — by NewDist, as it routes them to C's blocks — are
// SpGEMMCounted(A, Aᵀ, sr, Checkerboard()) whatever the partition, provided
// Add is associative, commutative and agrees with Fold. products counts as
// for SpGEMMCounted, and with a counter the products and the Fold calls, two
// per entry of the block, are published as spmat.spgemm_products and
// spmat.fold_calls. a is never touched.
func ColumnProduct[T, C any](c *mpi.Comm, nr int32, a Columns[T], sr Semiring[T, T, C], products *int64) []Triple[C] {
	if err := a.Check(nr); err != nil {
		panic(fmt.Sprintf("spmat: ColumnProduct block of rank %d: %v", c.Rank(), err))
	}
	ap := panel[T]{cols: make([]int32, a.Hi-a.Lo), starts: a.Starts, mid: a.Mid, rows: a.Rows, vals: a.Vals}
	for i := range ap.cols {
		ap.cols[i] = a.Lo + int32(i)
	}
	_, at := transposePanel(ap, 0, nr)
	p := &gustavson[T, T, C]{sr: sr, split: true, acc: newAcc[C](nr), chunk: productChunk}
	p.multiply(ap, int(a.Lo), int(a.Hi), at)
	p.publish(c, products)
	return slices.Concat(append(p.full, p.ts)...)
}

// productChunk is the cells of one chunk of ColumnProduct's output: it is
// written in chunks and copied once, at its exact size, where a buffer grown
// by append would allocate about five times the output.
const productChunk = 4096
