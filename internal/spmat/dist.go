package spmat

import (
	"fmt"
	"slices"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Dist is a 2D block-distributed sparse matrix: grid rank (i, j) owns the
// block rows BlockRange(NR, √P, i) × cols BlockRange(NC, √P, j). Local
// triples keep their global indices.
type Dist[T any] struct {
	G                          *grid.Grid
	NR, NC                     int32
	RowLo, RowHi, ColLo, ColHi int32
	Local                      COO[T] // dims NR×NC with global indices restricted to this block
}

// newDistShell prepares an empty matrix with the block geometry filled in.
func newDistShell[T any](g *grid.Grid, nr, nc int32) *Dist[T] {
	rlo, rhi := g.MyRowRange(int(nr))
	clo, chi := g.MyColRange(int(nc))
	return &Dist[T]{
		G: g, NR: nr, NC: nc,
		RowLo: int32(rlo), RowHi: int32(rhi),
		ColLo: int32(clo), ColHi: int32(chi),
		Local: COO[T]{NR: nr, NC: nc},
	}
}

// owns reports whether (r, c) belongs to this rank's block.
func (a *Dist[T]) owns(r, c int32) bool {
	return r >= a.RowLo && r < a.RowHi && c >= a.ColLo && c < a.ColHi
}

// NewDist builds a distributed matrix from arbitrarily located triples: each
// rank contributes any triples it produced; they are routed to their block
// owner with one Alltoallv and combined there (collective).
func NewDist[T any](g *grid.Grid, nr, nc int32, mine []Triple[T], combine func(T, T) T) *Dist[T] {
	a := newDistShell[T](g, nr, nc)
	owner, counts := route(g.Comm.Size(), len(mine), func(k int) int {
		return g.BlockOwnerRank(int(nr), int(nc), int(mine[k].Row), int(mine[k].Col))
	})
	parts := mpi.AlltoallvBufs(g.Comm, routed(owner, counts, func(k int) Triple[T] { return mine[k] }))
	ts := slices.Concat(parts...)
	for _, t := range ts {
		if !a.owns(t.Row, t.Col) {
			panic(fmt.Sprintf("spmat: routed triple (%d,%d) outside block", t.Row, t.Col))
		}
	}
	a.Local = NewCOO(nr, nc, ts, combine)
	return a
}

// Panels is one rank's two operands of C = A·Aᵀ in the form the SUMMA loop
// broadcasts them (FromRows): the panel frame of its A block, split by row
// parity for the Checkerboard mask, and the unsplit panel frame of its Aᵀ
// block, which the rank at the transposed grid position built from its own
// A block. Both frames are read-only; SpGEMMPanels multiplies them.
type Panels[T any] struct {
	G      *grid.Grid
	NR, NC int32 // A is NR×NC
	Nnz    int   // this rank's nonzeros of A
	a, at  []byte
}

// FromRows builds the two SUMMA panels of C = A·Aᵀ from one distribution of
// A (collective). mine holds this rank's rows of the nr×nc matrix
// row-grouped — rows ascending, each row's columns distinct, in any order —
// and every row must lie in the rank's grid-row range, which holds when rows
// are block-distributed over the P ranks in world-rank order, as reads are
// (see package grid).
//
// A is sorted once, here, and never held as triples: a count pass and a fill
// pass route the triples by column block into √P exact-size buffers over the
// row communicator. Because the senders' row ranges ascend with their rank,
// one stable counting scatter of the received parts by (column, row parity)
// is the rank's split A panel, written straight into its frame: within a
// column, rows ascend across and within the parts. One counting scatter of
// that panel by row, walking its columns in order, is the unsplit panel of
// its transpose — each row's columns ascending — and that frame is the Aᵀ
// panel of the transposed rank, so it crosses one grid.TransposedFrame swap
// (none on the diagonal) and its receiver broadcasts it as its B panel. The
// input is checked row-grouped inside the rank's row range and the matrix's
// columns here; the order of both panels — a duplicate cell, or rows that go
// backwards across the senders — is checked by the decode every rank runs on
// every panel it multiplies, which names the rank that built a bad one. Both
// exchanges are chunked, so no message exceeds mpi.MaxMessageBytes however
// large a block is (T must be fixed-width); the rank is blocking for the
// call, so their bytes stay exposed. The routed parts are mpi.Bufs, so for a
// dense T a triple is copied once at routing and its row and value once into
// each panel, never by the wire.
func FromRows[T any](g *grid.Grid, nr, nc int32, mine []Triple[T]) *Panels[T] {
	defer g.Comm.SetBlocking(g.Comm.SetBlocking(true))
	rlo, rhi := g.MyRowRange(int(nr))
	clo, chi := g.MyColRange(int(nc))
	if err := CheckRowGrouped(mine, int32(rlo), int32(rhi), 0, nc); err != nil {
		panic(fmt.Sprintf("spmat: FromRows input: %v", err))
	}
	counts := make([]int, g.Dim)
	for _, t := range mine {
		counts[grid.BlockOwner(int(nc), g.Dim, int(t.Col))]++
	}
	send := make([]mpi.Buf[Triple[T]], g.Dim)
	fill := make([][]Triple[T], g.Dim)
	for j, n := range counts {
		send[j] = mpi.NewBuf[Triple[T]](n)
		fill[j] = send[j].Elems()[:0]
	}
	for _, t := range mine {
		j := grid.BlockOwner(int(nc), g.Dim, int(t.Col))
		fill[j] = append(fill[j], t)
	}
	recv := mpi.IAlltoallv(g.RowComm, send).WaitValue()
	a, p := scatterPanel(recv, int32(clo), int32(chi))
	at := transposePanel(p, int32(rlo), int32(rhi))
	return &Panels[T]{G: g, NR: nr, NC: nc, Nnz: len(p.rows), a: a, at: grid.TransposedFrame(g, at)}
}

// order is what checkOrder requires of each triple against its predecessor.
type order string

const (
	rowGrouped order = "row-grouped"      // row not below the predecessor's
	rowMajor   order = "strict row-major" // strictly after it by (Row, Col)
)

// checkOrder reports the first triple of ts that lies outside rows
// [rowLo, rowHi) × columns [colLo, colHi) or breaks order o against its
// predecessor; under a strict order a duplicate cell is an error too.
func checkOrder[T any](ts []Triple[T], rowLo, rowHi, colLo, colHi int32, o order) error {
	for i, t := range ts {
		if t.Row < rowLo || t.Row >= rowHi || t.Col < colLo || t.Col >= colHi {
			return fmt.Errorf("triple %d (%d,%d) outside [%d,%d)x[%d,%d)", i, t.Row, t.Col, rowLo, rowHi, colLo, colHi)
		}
		if i == 0 {
			continue
		}
		p := ts[i-1]
		var bad bool
		switch o {
		case rowGrouped:
			bad = t.Row < p.Row
		case rowMajor:
			bad = t.Row < p.Row || t.Row == p.Row && t.Col <= p.Col
		}
		if bad {
			return fmt.Errorf("triple %d (%d,%d) does not follow (%d,%d) in %s order", i, t.Row, t.Col, p.Row, p.Col, o)
		}
	}
	return nil
}

// CheckRowGrouped reports the first triple of ts that lies outside rows
// [rowLo, rowHi) × columns [colLo, colHi) or whose row is below its
// predecessor's. Columns within a row are not compared.
func CheckRowGrouped[T any](ts []Triple[T], rowLo, rowHi, colLo, colHi int32) error {
	return checkOrder(ts, rowLo, rowHi, colLo, colHi, rowGrouped)
}

// CheckRowMajor reports the first triple of ts that lies outside rows
// [rowLo, rowHi) × columns [colLo, colHi) or does not come strictly after its
// predecessor in row-major order (so a duplicate cell is an error too).
func CheckRowMajor[T any](ts []Triple[T], rowLo, rowHi, colLo, colHi int32) error {
	return checkOrder(ts, rowLo, rowHi, colLo, colHi, rowMajor)
}

// FromGlobalTriples builds the matrix when every rank deterministically holds
// the full triple set (tests): each rank keeps its block, no communication.
func FromGlobalTriples[T any](g *grid.Grid, nr, nc int32, all []Triple[T], combine func(T, T) T) *Dist[T] {
	a := newDistShell[T](g, nr, nc)
	var ts []Triple[T]
	for _, t := range all {
		if a.owns(t.Row, t.Col) {
			ts = append(ts, t)
		}
	}
	a.Local = NewCOO(nr, nc, ts, combine)
	return a
}

// FromLocalTriples rebuilds a distributed matrix from one rank's previously
// dumped local block — the checkpoint restore path. The triples must already
// be canonical (column-major, no duplicates) and lie inside this rank's block
// of the nr×nc grid distribution, which holds for any slice taken from
// Local.Ts of a matrix with the same grid and dims. No communication.
func FromLocalTriples[T any](g *grid.Grid, nr, nc int32, ts []Triple[T]) *Dist[T] {
	a := newDistShell[T](g, nr, nc)
	for _, t := range ts {
		if !a.owns(t.Row, t.Col) {
			panic(fmt.Sprintf("spmat: restored triple (%d,%d) outside block [%d,%d)x[%d,%d)",
				t.Row, t.Col, a.RowLo, a.RowHi, a.ColLo, a.ColHi))
		}
	}
	if len(ts) > 0 {
		a.Local.Ts = ts
	}
	return a
}

// Nnz returns the global nonzero count (collective).
func (a *Dist[T]) Nnz() int64 {
	return mpi.Allreduce(a.G.Comm, int64(a.Local.Nnz()), func(x, y int64) int64 { return x + y })
}

// GatherTriples collects the full matrix at root (collective; nil elsewhere).
func (a *Dist[T]) GatherTriples(root int) []Triple[T] {
	parts := mpi.Gatherv(a.G.Comm, root, a.Local.Ts)
	if a.G.Comm.Rank() != root {
		return nil
	}
	ts := slices.Concat(parts...)
	sortColumnMajor(ts, a.NC)
	return ts
}

// Apply transforms every local nonzero in place; returning false drops the
// entry (the paper's Prune). Purely local.
func (a *Dist[T]) Apply(f func(r, c int32, v T) (T, bool)) {
	out := a.Local.Ts[:0]
	for _, t := range a.Local.Ts {
		if v, keep := f(t.Row, t.Col, t.Val); keep {
			t.Val = v
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = nil // canonical form: empty is nil (see NewCOO)
	}
	a.Local.Ts = out
}

// Clone deep-copies the distributed matrix (local block only; no comm).
func (a *Dist[T]) Clone() *Dist[T] {
	b := *a
	b.Local = a.Local.Clone()
	return &b
}

// Transpose returns Aᵀ, mirroring each value with mirror (nil = unchanged).
// Triples are routed to the transposed block owner (collective). For square
// matrices on a square grid this is the pairwise exchange with the
// transposed rank that the paper describes.
func Transpose[T any](a *Dist[T], mirror func(T) T) *Dist[T] {
	g := a.G
	b := newDistShell[T](g, a.NC, a.NR)
	ts := a.Local.Ts
	owner, counts := route(g.Comm.Size(), len(ts), func(k int) int {
		return g.BlockOwnerRank(int(a.NC), int(a.NR), int(ts[k].Col), int(ts[k].Row))
	})
	parts := mpi.AlltoallvBufs(g.Comm, routed(owner, counts, func(k int) Triple[T] {
		t := ts[k]
		if mirror != nil {
			t.Val = mirror(t.Val)
		}
		return Triple[T]{Row: t.Col, Col: t.Row, Val: t.Val}
	}))
	b.Local = NewCOO(a.NC, a.NR, slices.Concat(parts...), nil)
	return b
}

// Add merges two equally-shaped distributed matrices entry-wise (local op;
// both operands share block geometry by construction).
func Add[T any](a, b *Dist[T], combine func(T, T) T) *Dist[T] {
	if a.NR != b.NR || a.NC != b.NC {
		panic("spmat: Add shape mismatch")
	}
	out := a.Clone()
	ts := append(out.Local.Ts, b.Local.Ts...)
	out.Local = NewCOO(a.NR, a.NC, ts, combine)
	return out
}

// RowDegrees returns the global row nonzero counts as a block-distributed
// vector (collective): local per-row counts are summed across the grid row —
// the "summation reduction over the row dimension" of §4.2 — by reduceRows.
func (a *Dist[T]) RowDegrees() *DistVec[int32] {
	counts := make([]int32, a.RowHi-a.RowLo)
	for _, t := range a.Local.Ts {
		counts[t.Row-a.RowLo]++
	}
	return reduceRows(a, counts, func(x, y int32) int32 { return x + y })
}

// reduceRows folds the ranks' partials over a's row range element-wise with
// combine and returns this rank's vector block of the result (collective
// over the row communicator). The vector blocks of a grid row's ranks exactly
// cover its row range (package grid), so this is one MPI_Reduce_scatter:
// each rank sends every peer of its grid row only that peer's block.
func reduceRows[T, W any](a *Dist[T], partial []W, combine func(W, W) W) *DistVec[W] {
	g := a.G
	blocks := make([][]W, g.Dim)
	for j := range blocks {
		lo, hi := grid.BlockRange(int(a.NR), g.Comm.Size(), g.Rank(g.Row, j))
		blocks[j] = partial[int32(lo)-a.RowLo : int32(hi)-a.RowLo]
	}
	lo, hi := g.MyVecRange(int(a.NR))
	return &DistVec[W]{G: g, N: int(a.NR), Lo: int32(lo), Hi: int32(hi),
		Local: mpi.ReduceScatterBlocks(g.RowComm, blocks, combine)}
}

// MaskRowsCols removes every nonzero whose row or column appears in ids,
// which must be ascending and identical on all ranks (the branch vector
// after its allgather). Indices stay valid: the matrix is not re-indexed,
// exactly as §4.2 prescribes.
func (a *Dist[T]) MaskRowsCols(ids []int32) {
	if len(ids) == 0 {
		return
	}
	in := func(x int32) bool {
		_, ok := slices.BinarySearch(ids, x)
		return ok
	}
	a.Apply(func(r, c int32, v T) (T, bool) {
		return v, !in(r) && !in(c)
	})
}

// Mask is the output mask of a multiply: which cells of C = A ⊗ B are formed
// at all. A masked cell is never multiplied, never accumulated and never
// counted, so the result equals the unmasked product followed by Apply(mask)
// at the cost of the kept cells only. The zero Mask keeps every cell. The
// multiply selects its product loop from the mask once: the checkerboard — a
// pure function of the indices — asks nothing per product, because each A
// column run is split into parity sub-runs whose kept rows are a prefix and a
// suffix (see gustavson.multiply); only a KeepFunc mask pays a call per
// product.
type Mask struct {
	checkerboard bool
	keep         func(row, col int32) bool
}

// Checkerboard is the mask of a symmetric product whose pairs must each be
// formed exactly once. Keeping only the upper triangle would idle the
// lower-triangle ranks of the grid, so the surviving direction of each pair is
// chosen checkerboard-style — equal parity keeps row < col, unequal parity
// row > col — which splits the work evenly across both triangles. The
// diagonal is dropped.
func Checkerboard() Mask { return Mask{checkerboard: true} }

// KeepFunc masks with an arbitrary predicate, asked before each product is
// formed.
func KeepFunc(keep func(row, col int32) bool) Mask { return Mask{keep: keep} }

// SpGEMMCounted computes A ⊗ B with the SUMMA algorithm (collective; see
// summa): each rank encodes its A block — under the Checkerboard mask with
// its runs split by row parity — and its B block as the panel frames it
// broadcasts. Only cells the mask keeps are formed (Mask{}
// keeps every cell). products, when non-nil, is a semiring-product work
// counter for the performance model: it is advanced by the number of
// products evaluated on kept cells, annihilated ones included. With a
// counter, the products and the Fold calls that formed them are also
// published as spmat.spgemm_products and spmat.fold_calls. a and b are never
// touched.
func SpGEMMCounted[A, B, C any](a *Dist[A], b *Dist[B], sr Semiring[A, B, C], mask Mask, products *int64) *Dist[C] {
	if a.G != b.G {
		panic("spmat: SpGEMM operands on different grids")
	}
	if a.NC != b.NR {
		panic(fmt.Sprintf("spmat: SpGEMM inner dims %d != %d", a.NC, b.NR))
	}
	return summa(operands{
		g: a.G, nr: a.NR, nk: a.NC, nc: b.NC,
		a: encodePanel(a.Local.Ts, mask.checkerboard), b: encodePanel(b.Local.Ts, false),
	}, sr, mask, products)
}

// SpGEMMPanels is SpGEMMCounted of C = A ⊗ Aᵀ under the Checkerboard mask
// for the panels FromRows built, which the SUMMA loop broadcasts as they
// are. p is never touched.
func SpGEMMPanels[T, C any](p *Panels[T], sr Semiring[T, T, C], products *int64) *Dist[C] {
	return summa(operands{g: p.G, nr: p.NR, nk: p.NC, nc: p.NR, a: p.a, b: p.at, bTransposed: true},
		sr, Checkerboard(), products)
}

// operands is what the SUMMA loop needs of C = A ⊗ B on one rank: the
// shapes — A is nr×nk, B is nk×nc — and the rank's A and B panel frames,
// which must not change once given. bTransposed says every rank's B frame
// was built by its transposed rank (FromRows), which a bad one then names.
type operands struct {
	g           *grid.Grid
	nr, nk, nc  int32
	a, b        []byte
	bTransposed bool
}

// summa is the SUMMA loop: √P stages; in stage s the ranks of grid column s
// broadcast their A panels along their grid row, the ranks of grid row s
// broadcast their B panels along their grid column, and every rank
// accumulates the local product of the kept cells.
//
// The broadcasts are nonblocking: round s+1's A/B panels are posted with
// IBcast before round s multiplies, so on a rank that is not in blocking
// mode the panel transfer hides behind the local product. Each panel crosses
// the wire as one DCSC frame (panel.go), and every rank, the root included,
// multiplies read-only views of the frame it holds after one linear
// validation pass; a frame failing it panics naming its root (and, for a B
// frame from FromRows, the rank that built it). The local product of each
// round is the Gustavson pass of local.go (gustavson.multiply), which hands
// the semiring whole kept stretches of A's column runs to fold into the
// generation-tagged accumulator over the block's row span; per-round
// emissions are column-clustered, so the final cross-round merge is the
// radix path of NewCOO with the semiring Add as the combiner (Add is
// associative and commutative — the precondition SUMMA's
// stage-order-independent accumulation already imposes).
func summa[A, B, C any](op operands, sr Semiring[A, B, C], mask Mask, products *int64) *Dist[C] {
	g := op.g
	out := newDistShell[C](g, op.nr, op.nc)
	p := gustavson[A, B, C]{sr: sr, mask: mask, acc: newAcc[C](out.RowHi - out.RowLo), rowLo: out.RowLo}
	lane := g.Comm.Lane()
	panelNnz := g.Comm.Metrics().Histogram("spmat.panel_nnz")

	// post starts the round-s panel broadcasts, A then B on every rank, so
	// tag sequences line up; only the round's roots' frames are read.
	post := func(s int) (*mpi.BcastRequest, *mpi.BcastRequest) {
		return mpi.IBcast(g.RowComm, s, op.a), mpi.IBcast(g.ColComm, s, op.b)
	}
	reqA, reqB := post(0)
	for s := 0; s < g.Dim; s++ {
		// Collect round s — A(:, s-block) came along the grid row, B(s-block, :)
		// along the grid column — then immediately post round s+1 so its
		// panels travel while this round multiplies.
		aFrame, bFrame := reqA.WaitFrame(), reqB.WaitFrame()
		if s+1 < g.Dim {
			reqA, reqB = post(s + 1)
		}
		kLo, kHi := grid.BlockRange(int(op.nk), g.Dim, s)
		ap, err := decodePanel[A](aFrame, int32(kLo), int32(kHi), out.RowLo, out.RowHi, mask.checkerboard)
		if err != nil {
			panic(fmt.Sprintf("spmat: A panel from rank %d: %v", g.Rank(g.Row, s), err))
		}
		bp, err := decodePanel[B](bFrame, out.ColLo, out.ColHi, int32(kLo), int32(kHi), false)
		if err != nil {
			built := ""
			if op.bTransposed {
				built = fmt.Sprintf(", built by rank %d", g.Rank(g.Col, s))
			}
			panic(fmt.Sprintf("spmat: B panel from rank %d%s: %v", g.Rank(s, g.Col), built, err))
		}
		panelNnz.Observe(int64(len(ap.rows)))
		panelNnz.Observe(int64(len(bp.rows)))
		roundStart := lane.Start()
		p.multiply(ap, kLo, kHi, bp)
		if lane != nil {
			lane.Span(0, "spmat", "summa.round", roundStart,
				obs.Arg{K: "s", V: int64(s)}, obs.Arg{K: "a_nnz", V: int64(len(ap.rows))},
				obs.Arg{K: "b_nnz", V: int64(len(bp.rows))})
		}
	}
	if products != nil {
		*products += p.products
		g.Comm.Metrics().Counter("spmat.spgemm_products").Add(p.products)
		g.Comm.Metrics().Counter("spmat.fold_calls").Add(p.calls)
	}
	out.Local = NewCOO(op.nr, op.nc, p.ts, sr.Add)
	return out
}

// DistVec is a dense vector block-distributed across all P ranks in
// world-rank order; rank r owns BlockRange(N, P, r). With the row-major grid
// layout, the union of the blocks of grid row i is exactly the matrix row
// range of grid row i (see package grid) — the property behind the paper's
// induced-subgraph communication (Figure 2).
type DistVec[T any] struct {
	G      *grid.Grid
	N      int
	Lo, Hi int32
	Local  []T
}

// NewDistVec allocates a zero vector of length n.
func NewDistVec[T any](g *grid.Grid, n int) *DistVec[T] {
	lo, hi := g.MyVecRange(n)
	return &DistVec[T]{G: g, N: n, Lo: int32(lo), Hi: int32(hi), Local: make([]T, hi-lo)}
}

// VecFromGlobal builds a vector when all ranks hold the full content
// deterministically (no comm; each keeps its block).
func VecFromGlobal[T any](g *grid.Grid, full []T) *DistVec[T] {
	v := NewDistVec[T](g, len(full))
	copy(v.Local, full[v.Lo:v.Hi])
	return v
}

// Owns reports whether index i is in this rank's block.
func (v *DistVec[T]) Owns(i int32) bool { return i >= v.Lo && i < v.Hi }

// Get returns a locally-owned element.
func (v *DistVec[T]) Get(i int32) T {
	if !v.Owns(i) {
		panic(fmt.Sprintf("spmat: vec index %d outside local block [%d,%d)", i, v.Lo, v.Hi))
	}
	return v.Local[i-v.Lo]
}

// Set updates a locally-owned element.
func (v *DistVec[T]) Set(i int32, val T) {
	if !v.Owns(i) {
		panic(fmt.Sprintf("spmat: vec index %d outside local block [%d,%d)", i, v.Lo, v.Hi))
	}
	v.Local[i-v.Lo] = val
}

// Owner returns the rank owning element i.
func (v *DistVec[T]) Owner(i int32) int { return v.G.VecOwner(v.N, int(i)) }

// AllgatherFull replicates the vector on every rank (collective).
func (v *DistVec[T]) AllgatherFull() []T {
	flat, _ := mpi.AllgathervFlat(v.G.Comm, v.Local)
	return flat
}

// RowColGather is the Figure 2 exchange (grid.RowCol) of a
// square-matrix-aligned vector: the entries of this rank's row range, then
// those of its column range, indexed from RowLo / ColLo of an NxN matrix
// with N = v.N. Both are chunked; on the diagonal they are one slice.
func (v *DistVec[T]) RowColGather() (rowVals, colVals []T) {
	return grid.RowCol(v.G, v.Local)
}

// route is the counting pass of every owner-routed exchange in this package:
// the destination (of p) of each of n items and how many items each
// destination gets, so each per-destination buffer is allocated once at its
// exact size and an item's owner is computed once.
func route(p, n int, ownerOf func(k int) int) (owner []int32, counts []int) {
	owner = make([]int32, n)
	counts = make([]int, p)
	for k := range owner {
		o := ownerOf(k)
		owner[k] = int32(o)
		counts[o]++
	}
	return owner, counts
}

// route is the counting pass for vector indices: the owner rank of every
// index.
func (v *DistVec[T]) route(idx []int32) (owner []int32, counts []int) {
	return route(v.G.Comm.Size(), len(idx), func(k int) int { return v.Owner(idx[k]) })
}

// routed builds the per-destination send buffers of an owner-routed
// collective, each at its exact size: item(k) goes to owner[k], in index
// order. It fills each buffer from its end, so counts, its cursors, are all
// zero when it returns.
func routed[E any](owner []int32, counts []int, item func(k int) E) []mpi.Buf[E] {
	send := make([]mpi.Buf[E], len(counts))
	for r, n := range counts {
		send[r] = mpi.NewBuf[E](n)
	}
	for k := len(owner) - 1; k >= 0; k-- {
		o := owner[k]
		counts[o]--
		send[o].Elems()[counts[o]] = item(k)
	}
	return send
}

// Fetch returns the values at arbitrary global indices, aligned with ids
// (collective: every rank must call, possibly with no ids). Routed to owners
// and answered with a mirrored Alltoallv — the pattern connected components
// use to chase parent pointers.
func (v *DistVec[T]) Fetch(ids []int32) []T {
	p := v.G.Comm.Size()
	owner, counts := v.route(ids)
	got := mpi.AlltoallvBufs(v.G.Comm, routed(owner, counts, func(k int) int32 { return ids[k] }))
	resp := make([]mpi.Buf[T], p)
	for r := 0; r < p; r++ {
		resp[r] = mpi.NewBuf[T](len(got[r]))
		for i, id := range got[r] {
			resp[r].Elems()[i] = v.Get(id)
		}
	}
	back := mpi.AlltoallvBufs(v.G.Comm, resp)
	// Requests went out in ids order per owner, so answers are consumed in
	// the same order.
	out := make([]T, len(ids))
	next := make([]int, p)
	for pos, o := range owner {
		out[pos] = back[o][next[o]]
		next[o]++
	}
	return out
}

// prop is one owner-routed (index, value) proposal of ScatterFold.
type prop[T any] struct {
	I int32
	V T
}

// ScatterFold routes (index, value) proposals to their owners and folds each
// into the vector there, v[i] = fold(v[i], val) (collective). fold must be
// associative and commutative, so the result does not depend on which rank
// proposed what.
func ScatterFold[T any](v *DistVec[T], idx []int32, vals []T, fold func(T, T) T) {
	owner, counts := v.route(idx)
	send := routed(owner, counts, func(k int) prop[T] { return prop[T]{I: idx[k], V: vals[k]} })
	for _, part := range mpi.AlltoallvBufs(v.G.Comm, send) {
		for _, pr := range part {
			v.Set(pr.I, fold(v.Get(pr.I), pr.V))
		}
	}
}

// ScatterMin is ScatterFold with a minimum — the hooking write of connected
// components.
func ScatterMin(v *DistVec[int32], idx []int32, vals []int32) {
	ScatterFold(v, idx, vals, func(x, y int32) int32 { return min(x, y) })
}
