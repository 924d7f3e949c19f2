// Package spmat is the sparse-matrix substrate standing in for CombBLAS:
// local COO/CSC/DCSC formats with a semiring abstraction, and distributed
// 2D block matrices on the √P × √P grid with masked SUMMA SpGEMM, the
// sort-free construction of A and Aᵀ from row-major triples, distributed
// transpose, element-wise transforms, row-degree reductions and row/column
// masking — the operations Algorithm 1 and Algorithm 2 are written in.
//
// Indices are int32 (the simulated scale never approaches 2^31 rows); values
// are generic so each pipeline stage can carry its own nonzero payload
// (k-mer positions, shared seeds, alignments, bidirected edges).
package spmat

import (
	"fmt"
	"slices"
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
	for _, t := range ts {
		if t.Row < 0 || t.Row >= nr || t.Col < 0 || t.Col >= nc {
			panic(fmt.Sprintf("spmat: triple (%d,%d) outside %dx%d", t.Row, t.Col, nr, nc))
		}
	}
	sortColumnMajor(ts, nc)
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
		hi := lo + 1
		for hi < len(ts) && ts[hi].Col == ts[lo].Col {
			hi++
		}
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

// ToCOO converts CSC back to canonical COO.
func (a CSC[T]) ToCOO() COO[T] {
	if len(a.IR) == 0 {
		return COO[T]{NR: a.NR, NC: a.NC} // canonical empty form is nil
	}
	ts := make([]Triple[T], 0, len(a.IR))
	for j := int32(0); j < a.NC; j++ {
		for p := a.JC[j]; p < a.JC[j+1]; p++ {
			ts = append(ts, Triple[T]{Row: a.IR[p], Col: j, Val: a.V[p]})
		}
	}
	return COO[T]{NR: a.NR, NC: a.NC, Ts: ts}
}

// ColDegree returns the number of nonzeros in column j — the vertex degree
// when the matrix is a symmetric graph adjacency.
func (a CSC[T]) ColDegree(j int32) int32 { return a.JC[j+1] - a.JC[j] }

// DCSC is the doubly-compressed format of Buluç & Gilbert that ELBA uses for
// hypersparse distributed blocks: only non-empty columns are stored. JC lists
// the non-empty column ids, CP the pointer range of each into IR/V.
type DCSC[T any] struct {
	NR, NC int32
	JC     []int32 // non-empty column ids, ascending
	CP     []int32 // len(JC)+1 pointers
	IR     []int32
	V      []T
}

// ToDCSC compresses the column dimension.
func (a CSC[T]) ToDCSC() DCSC[T] {
	var jc, cp []int32
	cp = append(cp, 0)
	for j := int32(0); j < a.NC; j++ {
		if a.JC[j+1] > a.JC[j] {
			jc = append(jc, j)
			cp = append(cp, a.JC[j+1])
		}
	}
	ir := make([]int32, len(a.IR))
	copy(ir, a.IR)
	v := make([]T, len(a.V))
	copy(v, a.V)
	return DCSC[T]{NR: a.NR, NC: a.NC, JC: jc, CP: cp, IR: ir, V: v}
}

// ToCSC uncompresses the column pointers — the linear-time conversion §4.4
// performs before local assembly ("only column pointers need to be
// uncompressed and the row indices array stays intact").
func (d DCSC[T]) ToCSC() CSC[T] {
	jc := make([]int32, d.NC+1)
	for i, j := range d.JC {
		jc[j+1] = d.CP[i+1] - d.CP[i]
	}
	for j := int32(0); j < d.NC; j++ {
		jc[j+1] += jc[j]
	}
	ir := make([]int32, len(d.IR))
	copy(ir, d.IR)
	v := make([]T, len(d.V))
	copy(v, d.V)
	return CSC[T]{NR: d.NR, NC: d.NC, JC: jc, IR: ir, V: v}
}

// Nnz returns the number of stored nonzeros.
func (d DCSC[T]) Nnz() int { return len(d.IR) }

// Semiring overloads multiplication and addition for SpGEMM, CombBLAS-style,
// as an in-place accumulate contract: a product is folded straight into its
// accumulator slot and never materialised as a value, so the hot loop pays one
// indirect call per product and moves no C through it.
//
//   - Mul writes a⊗b into the fresh slot *c, whose previous content is
//     unspecified, and reports whether the product is nonzero; false
//     annihilates it (the implicit zero) and leaves the slot unclaimed.
//   - MulAdd folds a⊗b into the live slot *c (c ← c ⊕ a⊗b); an annihilated
//     product leaves *c as it is.
//   - Add merges two accumulated values: the cross-round combiner of SUMMA's
//     final NewCOO, so it must be associative and commutative and agree with
//     MulAdd (MulAdd(c, a, b) ≡ *c = Add(*c, a⊗b)).
type Semiring[A, B, C any] struct {
	Mul    func(c *C, a A, b B) bool
	MulAdd func(c *C, a A, b B)
	Add    func(C, C) C
}

// spa is a generation-tagged sparse accumulator over a dense row span — the
// classic Gustavson SPA: vals and gen are allocated once for the whole
// multiply and invalidated per column by bumping cur instead of clearing, so
// the per-column cost is proportional to the rows actually touched.
type spa[C any] struct {
	vals []C
	gen  []uint32
	cur  uint32
	rows []int32 // rows touched this generation, insertion order
}

func newSPA[C any](n int32) *spa[C] {
	return &spa[C]{vals: make([]C, n), gen: make([]uint32, n), cur: 1}
}

// reset opens a fresh generation (O(1); a hard clear only on tag wraparound).
func (s *spa[C]) reset() {
	s.rows = s.rows[:0]
	s.cur++
	if s.cur == 0 {
		clear(s.gen)
		s.cur = 1
	}
}

// fold accumulates the product a⊗b into row i's slot in place: MulAdd into a
// slot this generation already claimed, Mul into a fresh one, which is claimed
// only if the product is nonzero.
func fold[A, B, C any](s *spa[C], i int32, a A, b B, sr *Semiring[A, B, C]) {
	if s.gen[i] == s.cur {
		sr.MulAdd(&s.vals[i], a, b)
	} else if sr.Mul(&s.vals[i], a, b) {
		s.gen[i] = s.cur
		s.rows = append(s.rows, i)
	}
}

// emit appends this generation's entries for column j to ts in ascending row
// order, rows shifted by rowLo (SPA indices are span-relative), and returns
// the extended slice.
func (s *spa[C]) emit(ts []Triple[C], j, rowLo int32) []Triple[C] {
	if len(s.rows) == 0 {
		return ts
	}
	slices.Sort(s.rows)
	for _, i := range s.rows {
		ts = append(ts, Triple[C]{Row: i + rowLo, Col: j, Val: s.vals[i]})
	}
	return ts
}

// Multiply computes a ⊗ b over the semiring with Gustavson's column
// algorithm and a reusable sparse accumulator (dense values plus
// generation-tagged flags — no per-column map). a is NR×K, b is K×NC. The
// output is emitted column by column with sorted rows, so it is canonical by
// construction and skips the NewCOO sort entirely.
func Multiply[A, B, C any](a CSC[A], b CSC[B], sr Semiring[A, B, C]) COO[C] {
	if a.NC != b.NR {
		panic(fmt.Sprintf("spmat: inner dims %d != %d", a.NC, b.NR))
	}
	acc := newSPA[C](a.NR)
	cap0 := len(a.V)
	if len(b.V) > cap0 {
		cap0 = len(b.V)
	}
	ts := make([]Triple[C], 0, cap0)
	for j := int32(0); j < b.NC; j++ {
		acc.reset()
		for p := b.JC[j]; p < b.JC[j+1]; p++ {
			k := b.IR[p]
			bv := b.V[p]
			for q := a.JC[k]; q < a.JC[k+1]; q++ {
				fold(acc, a.IR[q], a.V[q], bv, &sr)
			}
		}
		ts = acc.emit(ts, j, 0)
	}
	if len(ts) == 0 {
		ts = nil
	}
	return COO[C]{NR: a.NR, NC: b.NC, Ts: ts}
}

// TransposeLocal returns the transpose of a local COO, mirroring values
// (mirror nil keeps them unchanged).
func TransposeLocal[T any](a COO[T], mirror func(T) T) COO[T] {
	ts := make([]Triple[T], len(a.Ts))
	for i, t := range a.Ts {
		v := t.Val
		if mirror != nil {
			v = mirror(v)
		}
		ts[i] = Triple[T]{Row: t.Col, Col: t.Row, Val: v}
	}
	return NewCOO(a.NC, a.NR, ts, nil)
}
