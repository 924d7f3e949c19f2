// Package spmat is the sparse-matrix substrate standing in for CombBLAS:
// local COO/CSC formats with a semiring abstraction, and distributed
// 2D block matrices on the √P × √P grid with masked SUMMA SpGEMM, the
// masked product of one rank's block of columns with its own transpose
// (ColumnProduct), element-wise transforms and row/column masking, and
// block-distributed vectors with the collectives Algorithm 2 is written in:
// the row reduction as one reduce-scatter (row degrees, SpMV), the
// owner-routed fold (ScatterFold), fetch and the Figure 2 exchange.
// Transpose and Add have no production caller; they are the oracles the
// one-routing constructions are tested against. Nor have FromRows and
// SpGEMMPanels, the SUMMA path to C = A·Aᵀ that ColumnProduct replaced: the
// tests hold ColumnProduct's C to theirs. FromRows is also the only caller of
// grid.TransposedFrame, and through it of mpi.SwapFrame, so those two are
// reachable only from tests as well.
//
// Indices are int32 (the simulated scale never approaches 2^31 rows); values
// are generic so each pipeline stage can carry its own nonzero payload
// (k-mer positions, shared seeds, alignments, bidirected edges).
package spmat

import (
	"fmt"
	"slices"
	"sync"
)

// Triple is one nonzero. Distributed matrices store triples with global
// indices; local kernels may re-base them.
type Triple[T any] struct {
	Row, Col int32
	Val      T
}

// COO is a canonical coordinate-format matrix: triples sorted column-major
// (Col, then Row), no duplicates.
type COO[T any] struct {
	NR, NC int32
	Ts     []Triple[T]
}

// NewCOO builds a canonical COO from arbitrary triples, combining duplicates
// with combine (which must be associative and commutative; nil panics on
// duplicates). Ordering is stable: duplicates combine in input order. The
// column-major sort takes a radix-style path for the two shapes the pipeline
// actually produces (see sortColumnMajor) instead of a global comparison
// sort.
func NewCOO[T any](nr, nc int32, ts []Triple[T], combine func(T, T) T) COO[T] {
	checkBounds(nr, nc, ts)
	sortColumnMajor(ts, nc)
	return combined(nr, nc, ts, combine)
}

// checkBounds panics on the first triple of ts outside nr × nc.
func checkBounds[T any](nr, nc int32, ts []Triple[T]) {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= nr || t.Col < 0 || t.Col >= nc {
			panic(fmt.Sprintf("spmat: triple (%d,%d) outside %dx%d", t.Row, t.Col, nr, nc))
		}
	}
}

// newCOOParts is NewCOO of the parts' triples in order, one part after the
// other. When the column-bucketing path applies, its stable scatter reads
// the parts where they lie, so their concatenation is never written.
func newCOOParts[T any](nr, nc int32, parts [][]Triple[T], combine func(T, T) T) COO[T] {
	n, nonEmpty := 0, 0
	for _, part := range parts {
		checkBounds(nr, nc, part)
		n += len(part)
		if len(part) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty <= 1 || int(nc) > 2*n+1024 {
		return NewCOO(nr, nc, slices.Concat(parts...), combine)
	}
	starts := make([]int32, nc+1)
	for _, part := range parts {
		for _, t := range part {
			starts[t.Col+1]++
		}
	}
	for j := int32(0); j < nc; j++ {
		starts[j+1] += starts[j]
	}
	ts := make([]Triple[T], n)
	for _, part := range parts {
		for _, t := range part {
			ts[starts[t.Col]] = t
			starts[t.Col]++
		}
	}
	sortRowRuns(ts)
	return combined(nr, nc, ts, combine)
}

// combined merges the equal cells of ts, sorted column-major, with combine
// (nil panics on one) in place, and returns the canonical COO.
func combined[T any](nr, nc int32, ts []Triple[T], combine func(T, T) T) COO[T] {
	out := ts[:0]
	for _, t := range ts {
		if n := len(out); n > 0 && out[n-1].Row == t.Row && out[n-1].Col == t.Col {
			if combine == nil {
				panic(fmt.Sprintf("spmat: duplicate entry (%d,%d) with no combiner", t.Row, t.Col))
			}
			out[n-1].Val = combine(out[n-1].Val, t.Val)
			continue
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		out = nil // canonical form: empty is nil, so equality is structural
	}
	return COO[T]{NR: nr, NC: nc, Ts: out}
}

// sortColumnMajor orders ts by (Col, Row), stably. Three paths, cheapest
// first:
//
//   - already column-clustered (columns non-decreasing — SPA kernel output,
//     concatenations of per-column emissions): only the row runs within each
//     column need sorting, no global movement at all;
//   - column-bucketing radix when the column count is of the order of the
//     triple count (one counting pass, one stable scatter, then per-column
//     row sorts) — the local blocks routed by NewDist/Transpose/Add;
//   - a global stable comparison sort otherwise (hypersparse inputs where a
//     per-column counting array would dwarf the triples).
func sortColumnMajor[T any](ts []Triple[T], nc int32) {
	if len(ts) < 2 {
		return
	}
	clustered := true
	for i := 1; i < len(ts); i++ {
		if ts[i].Col < ts[i-1].Col {
			clustered = false
			break
		}
	}
	if !clustered {
		if int(nc) > 2*len(ts)+1024 {
			slices.SortStableFunc(ts, func(a, b Triple[T]) int {
				if a.Col != b.Col {
					return int(a.Col - b.Col)
				}
				return int(a.Row - b.Row)
			})
			return
		}
		// Stable counting scatter by column.
		starts := make([]int32, nc+1)
		for _, t := range ts {
			starts[t.Col+1]++
		}
		for j := int32(0); j < nc; j++ {
			starts[j+1] += starts[j]
		}
		tmp := make([]Triple[T], len(ts))
		next := starts[:nc:nc]
		for _, t := range ts {
			tmp[next[t.Col]] = t
			next[t.Col]++
		}
		copy(ts, tmp)
	}
	sortRowRuns(ts)
}

// sortRowRuns stably sorts each equal-column run of a column-clustered slice
// by row: insertion sort for the short runs that dominate sparse matrices, a
// stable merge sort above that.
func sortRowRuns[T any](ts []Triple[T]) {
	for lo := 0; lo < len(ts); {
		hi := runEnd(ts, lo)
		run := ts[lo:hi]
		if len(run) > 1 {
			if len(run) <= 24 {
				for i := 1; i < len(run); i++ {
					t := run[i]
					j := i - 1
					for j >= 0 && run[j].Row > t.Row {
						run[j+1] = run[j]
						j--
					}
					run[j+1] = t
				}
			} else {
				slices.SortStableFunc(run, func(a, b Triple[T]) int { return int(a.Row - b.Row) })
			}
		}
		lo = hi
	}
}

// Nnz returns the number of stored nonzeros.
func (a COO[T]) Nnz() int { return len(a.Ts) }

// Clone deep-copies the triple slice (values are copied by assignment).
func (a COO[T]) Clone() COO[T] {
	ts := make([]Triple[T], len(a.Ts))
	copy(ts, a.Ts)
	return COO[T]{NR: a.NR, NC: a.NC, Ts: ts}
}

// CSC is compressed sparse column: JC has NC+1 column pointers into IR/V.
// The paper's local-assembly stage (§4.4) walks exactly this structure.
type CSC[T any] struct {
	NR, NC int32
	JC     []int32
	IR     []int32
	V      []T
}

// ToCSC converts canonical COO to CSC.
func (a COO[T]) ToCSC() CSC[T] {
	jc := make([]int32, a.NC+1)
	for _, t := range a.Ts {
		jc[t.Col+1]++
	}
	for j := int32(0); j < a.NC; j++ {
		jc[j+1] += jc[j]
	}
	ir := make([]int32, len(a.Ts))
	v := make([]T, len(a.Ts))
	for i, t := range a.Ts {
		ir[i] = t.Row
		v[i] = t.Val
	}
	return CSC[T]{NR: a.NR, NC: a.NC, JC: jc, IR: ir, V: v}
}

// ColDegree returns the number of nonzeros in column j — the vertex degree
// when the matrix is a symmetric graph adjacency.
func (a CSC[T]) ColDegree(j int32) int32 { return a.JC[j+1] - a.JC[j] }

// Semiring overloads multiplication and addition for SpGEMM, CombBLAS-style,
// as an in-place accumulate contract over whole runs: the multiply hands the
// semiring one run of A's entries and one B value at a time, and the
// semiring folds every product of the run straight into its accumulator slot
// — one indirect call per run, none per product, and no C value moved
// through a call.
//
//   - Fold folds a⊗b into acc for every entry of a run, a stretch of one
//     column of A given as its rows — distinct — and their values vals
//     (len(vals) == len(rows)); row rows[i]'s slot is rows[i]−rowLo. Both
//     slices may be views of a received frame: Fold must not write to them.
//     A slot the current column has claimed (Acc.Slot reports it live) folds
//     in place, c ← c ⊕ a⊗b. A fresh slot receives a⊗b and is then claimed
//     (Acc.Claim) — unless the product annihilates (the implicit zero), which
//     leaves it unclaimed; an annihilated product leaves a live slot as it
//     is. Under SpGEMMInto every slot Fold is handed is live, seeded with the
//     caller's value.
//   - Add merges two accumulated values: the cross-round combiner of
//     SpGEMMCounted's final NewCOO, so it must be associative and commutative
//     and agree with Fold (folding a⊗b into c ≡ c = Add(c, a⊗b)). SpGEMMInto
//     folds every round into its caller's values and never calls it.
type Semiring[A, B, C any] struct {
	Fold func(acc *Acc[C], rows []int32, vals []A, rowLo int32, b B)
	Add  func(C, C) C
}

// Acc is a generation-tagged sparse accumulator over a dense row span — the
// classic Gustavson SPA: vals and gen are allocated once for the whole
// multiply and invalidated per column by bumping cur instead of clearing, so
// the per-column cost is proportional to the rows actually touched. A
// Semiring's Fold reads and claims its slots through Slot and Claim.
type Acc[C any] struct {
	vals []C
	gen  []uint32
	cur  uint32
	rows []int32 // rows claimed this generation, insertion order
}

func newAcc[C any](n int32) *Acc[C] {
	return &Acc[C]{vals: make([]C, n), gen: make([]uint32, n), cur: 1}
}

// Slot returns row i's slot and whether the current column has claimed it;
// an unclaimed slot's content is unspecified.
func (s *Acc[C]) Slot(i int32) (*C, bool) {
	return &s.vals[i], s.gen[i] == s.cur
}

// Claim marks row i's slot, just written with its first value, as live for
// the current column; call it only on a slot Slot reported not live.
func (s *Acc[C]) Claim(i int32) {
	s.gen[i] = s.cur
	s.rows = append(s.rows, i)
}

// spmvAccs and intoAccs hold the accumulators of SpMV and SpGEMMInto
// between calls, so a caller that multiplies once a round (FastSV, TR's
// fixpoint) allocates one per rank, not one per round. A borrowed one of
// another value type than the caller's is dropped, not reused.
var spmvAccs, intoAccs sync.Pool

// borrowAcc returns an accumulator over n rows from pool, or a new one. Its
// slots are unspecified, and no tag is ahead of its generation, so reset
// opens one with no live slot.
func borrowAcc[C any](pool *sync.Pool, n int32) *Acc[C] {
	if s, ok := pool.Get().(*Acc[C]); ok && int32(cap(s.vals)) >= n {
		s.vals, s.gen = s.vals[:n], s.gen[:n]
		return s
	}
	return newAcc[C](n)
}

// reset opens a fresh generation (O(1); a hard clear only on tag wraparound).
func (s *Acc[C]) reset() {
	s.rows = s.rows[:0]
	s.cur++
	if s.cur == 0 {
		clear(s.gen)
		s.cur = 1
	}
}

// emit appends this generation's entries for column j to ts in ascending row
// order, rows shifted by rowLo (slot indices are span-relative), and returns
// the extended slice.
func (s *Acc[C]) emit(ts []Triple[C], j, rowLo int32) []Triple[C] {
	if len(s.rows) == 0 {
		return ts
	}
	slices.Sort(s.rows)
	for _, i := range s.rows {
		ts = append(ts, Triple[C]{Row: i + rowLo, Col: j, Val: s.vals[i]})
	}
	return ts
}

// runEnd returns the end of the equal-column run of ts that starts at lo.
func runEnd[T any](ts []Triple[T], lo int) int {
	hi := lo + 1
	for hi < len(ts) && ts[hi].Col == ts[lo].Col {
		hi++
	}
	return hi
}

// gustavson is the local product of one multiply — Gustavson's column
// algorithm over an Acc spanning the output rows [rowLo, rowLo+len) — kept
// across SUMMA rounds with its output and work counters: products formed on
// kept cells (annihilated ones included) and Fold calls made. With a chunk
// size, the output is written in chunks of that many cells or more: full
// holds the filled ones, in order, and ts the last.
type gustavson[A, B, C any] struct {
	sr              Semiring[A, B, C]
	split           bool // the checkerboard: A's runs are split by row parity
	acc             *Acc[C]
	rowLo           int32
	ts              []Triple[C]
	chunk           int
	full            [][]Triple[C]
	products, calls int64
	aux             []int32 // column k of the round's A panel is run aux[k-kLo], -1 if empty
}

// emit appends output column j, the Acc's current generation, to the
// output.
func (p *gustavson[A, B, C]) emit(j int32) {
	if p.chunk > 0 && len(p.ts)+len(p.acc.rows) > cap(p.ts) {
		if len(p.ts) > 0 {
			p.full = append(p.full, p.ts)
		}
		p.ts = make([]Triple[C], 0, max(p.chunk, len(p.acc.rows)))
	}
	p.ts = p.acc.emit(p.ts, j, p.rowLo)
}

// index points aux at a's runs — CombBLAS's auxiliary column index, filled
// from a's column ids alone — so that a's runs are read where they lie in the
// panel: column k's is run aux[k-kLo], or -1 when it is empty.
func (p *gustavson[A, B, C]) index(a panel[A], kLo, kHi int) []int32 {
	aux := slices.Grow(p.aux[:0], kHi-kLo)[:kHi-kLo]
	for i := range aux {
		aux[i] = -1
	}
	for r, k := range a.cols {
		aux[int(k)-kLo] = int32(r)
	}
	p.aux = aux
	return aux
}

// multiply folds a ⊗ b into the output. a's columns lie in [kLo, kHi), and
// so do b's rows; a is split exactly when p is. b is walked a column at a
// time, each output column accumulated in the Acc and emitted with ascending
// rows. A B entry whose A column is empty still makes its Fold calls, with
// empty runs, so the call count is a function of B alone.
//
// Unsplit, each whole A run is folded: one Fold call per B entry. Under the
// checkerboard, for output column j the kept rows are a prefix of the
// sub-run of j's parity (rows < j) and a suffix of the other (rows > j);
// walks over the rows alone find both cuts, then two Fold calls fold them. A
// cell gets at most one product per B entry, so its products arrive in B's
// row order and every semiring sees the same fold sequence under every loop.
func (p *gustavson[A, B, C]) multiply(a panel[A], kLo, kHi int, b panel[B]) {
	aux := p.index(a, kLo, kHi)
	sr, acc, rowLo := p.sr, p.acc, p.rowLo
	var products, calls int64
	for q, j := range b.cols {
		acc.reset()
		for e := b.starts[q]; e < b.starts[q+1]; e++ {
			bv := b.vals[e]
			var lo, mid, hi int32 // an empty A column is the empty run
			if r := aux[int(b.rows[e])-kLo]; r >= 0 {
				lo, hi = a.starts[r], a.starts[r+1]
				mid = hi
				if a.mid != nil {
					mid = a.mid[r]
				}
			}
			if p.split {
				sameRows, sameVals := a.rows[lo:mid], a.vals[lo:mid]
				otherRows, otherVals := a.rows[mid:hi], a.vals[mid:hi]
				if j&1 == 1 {
					sameRows, otherRows = otherRows, sameRows
					sameVals, otherVals = otherVals, sameVals
				}
				n := 0
				for n < len(sameRows) && sameRows[n] < j {
					n++
				}
				m := len(otherRows)
				for m > 0 && otherRows[m-1] > j {
					m--
				}
				sr.Fold(acc, sameRows[:n], sameVals[:n], rowLo, bv)
				sr.Fold(acc, otherRows[m:], otherVals[m:], rowLo, bv)
				products += int64(n + len(otherRows) - m)
				calls += 2
			} else {
				sr.Fold(acc, a.rows[lo:hi], a.vals[lo:hi], rowLo, bv)
				products += int64(hi - lo)
				calls++
			}
		}
		p.emit(j)
	}
	p.products += products
	p.calls += calls
}

// foldInto is multiply under a pattern mask, for SpGEMMInto: a ⊗ b is folded
// into out, whose values lie beside mask, a column-major block of cells over
// p's rows, and only into those cells. a is unsplit. For each output column j
// the Acc slots of mask column j's rows are seeded from out and made live; a
// stretch of an A run is folded iff its rows' slots are live, found by
// reading their generation tags inline, one Fold call per maximal live
// stretch; then the slots are written back. Nothing is emitted, and a column
// of b with no mask cell is skipped whole.
func foldInto[A, B, C, M any](p *gustavson[A, B, C], a panel[A], kLo, kHi int, b panel[B], mask []Triple[M], out []C) {
	aux := p.index(a, kLo, kHi)
	sr, acc, rowLo := p.sr, p.acc, p.rowLo
	var products, calls int64
	lo := 0 // mask column j's cells are mask[lo:hi]
	for q, j := range b.cols {
		for lo < len(mask) && mask[lo].Col < j {
			lo++
		}
		hi := lo
		for hi < len(mask) && mask[hi].Col == j {
			hi++
		}
		if hi == lo {
			continue
		}
		acc.reset()
		live, cur := acc.gen, acc.cur
		for e := lo; e < hi; e++ {
			i := mask[e].Row - rowLo
			acc.vals[i], live[i] = out[e], cur
		}
		for e := b.starts[q]; e < b.starts[q+1]; e++ {
			r := aux[int(b.rows[e])-kLo]
			if r < 0 {
				continue
			}
			rows, vals := a.rows[a.starts[r]:a.starts[r+1]], a.vals[a.starts[r]:a.starts[r+1]]
			for i := 0; i < len(rows); {
				if live[rows[i]-rowLo] != cur {
					i++
					continue
				}
				end := i + 1
				for end < len(rows) && live[rows[end]-rowLo] == cur {
					end++
				}
				sr.Fold(acc, rows[i:end], vals[i:end], rowLo, b.vals[e])
				products += int64(end - i)
				calls++
				i = end + 1 // rows[end], if any, is not live
			}
		}
		for e := lo; e < hi; e++ {
			out[e] = acc.vals[mask[e].Row-rowLo]
		}
		lo = hi
	}
	p.products += products
	p.calls += calls
}

// Multiply computes a ⊗ b over the semiring with the local product SUMMA
// runs per round (a is NR×K, b is K×NC, both canonical — a block that is not
// panics): both operands are scattered into unsplit panels over all their
// columns, and the output is emitted column by column with sorted rows, so it
// is canonical by construction and skips the NewCOO sort entirely.
func Multiply[A, B, C any](a COO[A], b COO[B], sr Semiring[A, B, C]) COO[C] {
	if a.NC != b.NR {
		panic(fmt.Sprintf("spmat: inner dims %d != %d", a.NC, b.NR))
	}
	p := gustavson[A, B, C]{sr: sr, acc: newAcc[C](a.NR), ts: make([]Triple[C], 0, max(len(a.Ts), len(b.Ts)))}
	p.multiply(localPanel(a), 0, int(a.NC), localPanel(b))
	if len(p.ts) == 0 {
		p.ts = nil
	}
	return COO[C]{NR: a.NR, NC: b.NC, Ts: p.ts}
}

// localPanel is a's unsplit panel over columns [0, NC), after checking that
// a is canonical.
func localPanel[T any](a COO[T]) panel[T] {
	if err := CheckColMajor(a.Ts, 0, a.NR, 0, a.NC); err != nil {
		panic(fmt.Sprintf("spmat: Multiply operand: %v", err))
	}
	_, p := scatterPanel([][]Triple[T]{a.Ts}, 0, a.NC, false)
	return p
}
