package spmat

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// rowsOf returns the rows [lo, hi) of a global triple list in strictly
// row-major order — the sorted form of what a rank owning those rows hands to
// FromRows.
func rowsOf(all []Triple[int64], lo, hi int) []Triple[int64] {
	var mine []Triple[int64]
	for _, t := range all {
		if int(t.Row) >= lo && int(t.Row) < hi {
			mine = append(mine, t)
		}
	}
	slices.SortFunc(mine, func(a, b Triple[int64]) int {
		if a.Row != b.Row {
			return int(a.Row - b.Row)
		}
		return int(a.Col - b.Col)
	})
	return mine
}

// shuffleRows permutes the columns within every row of a row-grouped list in
// place, leaving the rows in order: another input FromRows must accept.
func shuffleRows(rng *rand.Rand, ts []Triple[int64]) {
	for i := 0; i < len(ts); {
		j := i
		for j < len(ts) && ts[j].Row == ts[i].Row {
			j++
		}
		row := ts[i:j]
		rng.Shuffle(len(row), func(x, y int) { row[x], row[y] = row[y], row[x] })
		i = j
	}
}

// shape is a random matrix's size and density.
type shape struct {
	nr, nc  int32
	density float64
}

// fromRowsShapes are random matrix shapes that include fewer rows or columns
// than the grid dimension (so whole grid rows, ranks and column blocks are
// empty), an all-zero matrix, and dense ones.
func fromRowsShapes(rng *rand.Rand) []shape {
	shapes := []shape{{0, 0, 0}, {1, 1, 1}, {2, 40, 0.5}, {40, 2, 0.5}, {3, 3, 1}, {25, 31, 0}, {64, 64, 1}}
	for i := 0; i < 12; i++ {
		shapes = append(shapes, shape{int32(1 + rng.Intn(50)), int32(1 + rng.Intn(50)), rng.Float64() * 0.6})
	}
	return shapes
}

// frameTriples decodes both of FromRows' frames on this rank back to
// triples, in canonical column-major order: the A block, and the Aᵀ block
// (Row a column of A, Col a row) that the transposed rank built. Each frame
// is checked by decodePanel over the spans the SUMMA loop reads it with, and
// by triples' own order check.
func frameTriples(p *Panels[int64]) (a, at []Triple[int64], err error) {
	g := p.G
	rlo, rhi := g.MyRowRange(int(p.NR))
	clo, chi := g.MyColRange(int(p.NC))
	ap, err := decodePanel[int64](p.a, int32(clo), int32(chi), int32(rlo), int32(rhi), true)
	if err != nil {
		return nil, nil, fmt.Errorf("A frame: %w", err)
	}
	if a, err = ap.triples(int32(clo), int32(chi), int32(rlo), int32(rhi)); err != nil {
		return nil, nil, fmt.Errorf("A frame: %w", err)
	}
	// The Aᵀ block of this rank: rows the column block of grid row Row,
	// columns the row block of grid column Col.
	tlo, thi := g.MyColRange(int(p.NR))
	klo, khi := g.MyRowRange(int(p.NC))
	atp, err := decodePanel[int64](p.at, int32(tlo), int32(thi), int32(klo), int32(khi), false)
	if err != nil {
		return nil, nil, fmt.Errorf("Aᵀ frame: %w", err)
	}
	if at, err = atp.triples(int32(tlo), int32(thi), int32(klo), int32(khi)); err != nil {
		return nil, nil, fmt.Errorf("Aᵀ frame: %w", err)
	}
	return a, at, nil
}

// checkFromRows runs FromRows at P ranks on each rank's rows of all, cut by
// rowsOf and then passed through perturb, decodes both frames back to
// triples, and holds them to the generic construction FromRows replaced on
// the k-mer matrix — NewDist (all-to-all + radix sort) then Transpose
// (all-to-all + radix sort), kept in the package for R's symmetrisation and
// here as the oracle — block by block. The input must come back untouched:
// it is the counting stage's artifact.
func checkFromRows(t *testing.T, all []Triple[int64], nr, nc int32, p int, perturb func(rank int, mine []Triple[int64])) {
	t.Helper()
	err := mpi.Run(p, func(c *mpi.Comm) {
		g := grid.New(c)
		lo, hi := g.MyVecRange(int(nr))
		mine := rowsOf(all, lo, hi)
		perturb(c.Rank(), mine)
		input := slices.Clone(mine)
		panels := FromRows(g, nr, nc, mine)
		if !reflect.DeepEqual(mine, input) {
			panic("FromRows modified its input")
		}
		wantA := NewDist(g, nr, nc, slices.Clone(mine), nil)
		wantAt := Transpose(wantA, nil)
		a, at, err := frameTriples(panels)
		if err != nil {
			panic(err)
		}
		if panels.NR != nr || panels.NC != nc || panels.Nnz != len(wantA.Local.Ts) {
			panic(fmt.Sprintf("panels of a %dx%d matrix with %d nonzeros here, want %dx%d with %d", panels.NR, panels.NC, panels.Nnz, nr, nc, len(wantA.Local.Ts)))
		}
		if !slices.Equal(a, wantA.Local.Ts) {
			panic(fmt.Sprintf("A frame differs from NewDist\n got %v\nwant %v", a, wantA.Local.Ts))
		}
		if !slices.Equal(at, wantAt.Local.Ts) {
			panic(fmt.Sprintf("Aᵀ frame differs from Transpose\n got %v\nwant %v", at, wantAt.Local.Ts))
		}
	})
	if err != nil {
		t.Fatalf("%dx%d P=%d: %v", nr, nc, p, err)
	}
}

// TestFromRowsMatchesNewDistTranspose holds FromRows on strictly row-major
// input to the NewDist + Transpose oracle for every grid size.
func TestFromRowsMatchesNewDistTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sh := range fromRowsShapes(rng) {
		all := globalTriples(rng, sh.nr, sh.nc, sh.density)
		for _, p := range gridSizes {
			checkFromRows(t, all, sh.nr, sh.nc, p, func(int, []Triple[int64]) {})
		}
	}
}

// TestFromRowsIgnoresColumnOrderWithinRows is the metamorphic half of the
// contract: shuffling the columns within every row of the input — the order
// the counting stage emits them in is its extraction order, not column order —
// must give the same A and Aᵀ frames, which checkFromRows holds to the same
// NewDist + Transpose oracle as the sorted input's (the oracle is blind to
// input order), at every grid size and again with every message chunked at
// 64 bytes (four int64 triples).
func TestFromRowsIgnoresColumnOrderWithinRows(t *testing.T) {
	for _, limit := range []int64{mpi.MaxMessageBytes, 64} {
		func() {
			defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
			mpi.MaxMessageBytes = limit
			rng := rand.New(rand.NewSource(41))
			for _, sh := range fromRowsShapes(rng) {
				all := globalTriples(rng, sh.nr, sh.nc, sh.density)
				for _, p := range gridSizes {
					checkFromRows(t, all, sh.nr, sh.nc, p, func(rank int, mine []Triple[int64]) {
						shuffleRows(rand.New(rand.NewSource(int64(rank))), mine)
					})
				}
			}
		}()
	}
}

// TestFromRowsChunked: both exchanges honour mpi.MaxMessageBytes. At 64
// bytes (four int64 triples) every routed block of a dense matrix needs
// several chunks, and so does every Aᵀ frame crossing the transposed swap;
// the frames must still decode to the blocks every rank cuts from the global
// triples without communicating.
func TestFromRowsChunked(t *testing.T) {
	defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
	mpi.MaxMessageBytes = 64
	const n = 24
	all := globalTriples(rand.New(rand.NewSource(37)), n, n, 0.8)
	allT := make([]Triple[int64], len(all))
	for i, t := range all {
		allT[i] = Triple[int64]{Row: t.Col, Col: t.Row, Val: t.Val}
	}
	for _, p := range []int{4, 9} {
		err := mpi.Run(p, func(c *mpi.Comm) {
			g := grid.New(c)
			lo, hi := g.MyVecRange(n)
			a, at, err := frameTriples(FromRows(g, n, n, rowsOf(all, lo, hi)))
			if err != nil {
				panic(err)
			}
			wantA := FromGlobalTriples(g, n, n, all, nil)
			wantAt := FromGlobalTriples(g, n, n, slices.Clone(allT), nil)
			if !slices.Equal(a, wantA.Local.Ts) || !slices.Equal(at, wantAt.Local.Ts) {
				panic("chunked FromRows frames differ from the global triples' blocks")
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

// TestFromRowsRefusesBadInput: everything NewDist + NewCOO caught by routing
// and sorting, FromRows and the SUMMA loop over its panels must catch by
// checking — a duplicate cell (adjacent in its column of A), rows out of
// order (on the input), a row outside the rank's grid row, a column outside
// the matrix, and ranks whose row ranges do not ascend with their rank (each
// input fine on its own, A's columns not). The input is checked by FromRows,
// the order of A by the decode of its panel frame, on every rank that
// multiplies it. Columns out of order within a row are the input's normal
// form and must be accepted. Every rank is given the same kind of input so
// that none is left waiting for a peer that panicked.
func TestFromRowsRefusesBadInput(t *testing.T) {
	const n = 24
	all := globalTriples(rand.New(rand.NewSource(31)), n, n, 1)
	vecRange := func(g *grid.Grid) (int, int) { return g.MyVecRange(n) }
	const (
		unordered = `A panel from rank \d+: SUMMA panel row \d+ after \d+ in column \d+ does not strictly ascend`
		duplicate = `A panel from rank \d+: SUMMA panel row (\d+) after (\d+) in column 0 does not strictly ascend`
	)
	cases := []struct {
		name    string
		p       int
		rows    func(g *grid.Grid) (lo, hi int)
		corrupt func(g *grid.Grid, mine []Triple[int64]) []Triple[int64]
		want    string // a pattern of the panic; "" when the input must be accepted
	}{
		{"duplicate cell", 4, vecRange, func(_ *grid.Grid, mine []Triple[int64]) []Triple[int64] {
			return slices.Insert(mine, 1, mine[0])
		}, duplicate},
		{"duplicate cell, apart within its row", 1, vecRange, func(_ *grid.Grid, mine []Triple[int64]) []Triple[int64] {
			return slices.Insert(mine, 5, mine[0])
		}, duplicate},
		{"rows out of order", 9, vecRange, func(_ *grid.Grid, mine []Triple[int64]) []Triple[int64] {
			slices.Reverse(mine)
			return mine
		}, "FromRows input: triple 24"},
		{"columns out of order", 1, vecRange, func(_ *grid.Grid, mine []Triple[int64]) []Triple[int64] {
			mine[3], mine[4] = mine[4], mine[3]
			return mine
		}, ""},
		{"row of another grid row", 4, vecRange, func(g *grid.Grid, mine []Triple[int64]) []Triple[int64] {
			mine[len(mine)-1].Row = int32((g.Row + 1) % g.Dim * n / g.Dim)
			return mine
		}, "FromRows input: .*outside"},
		{"column outside the matrix", 4, vecRange, func(_ *grid.Grid, mine []Triple[int64]) []Triple[int64] {
			mine[len(mine)-1].Col = n
			return mine
		}, "FromRows input: .*outside"},
		{"row ranges descend along the grid row", 4, func(g *grid.Grid) (int, int) {
			return grid.BlockRange(n, 4, g.Rank(g.Row, g.Dim-1-g.Col))
		}, func(_ *grid.Grid, mine []Triple[int64]) []Triple[int64] { return mine }, unordered},
	}
	for _, tc := range cases {
		err := mpi.Run(tc.p, func(c *mpi.Comm) {
			c.SetBlocking(true) // a rank that panics leaves no broadcast running
			g := grid.New(c)
			lo, hi := tc.rows(g)
			SpGEMMPanels(FromRows(g, n, n, tc.corrupt(g, rowsOf(all, lo, hi))), plusTimes, nil)
		})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !regexp.MustCompile(tc.want).MatchString(err.Error())):
			t.Errorf("%s: error %v, want a panic matching %q", tc.name, err, tc.want)
		}
	}
}

// TestSpGEMMPanelsMatchesSpGEMMCounted is the differential test of the A·Aᵀ
// path: the product SpGEMMPanels forms from FromRows' frames must equal
// SpGEMMCounted's over A and Aᵀ built from the global triples and encoded by
// the loop itself, under the Checkerboard mask, with an equal products
// counter, at every grid size and again with every message chunked at 64
// bytes.
func TestSpGEMMPanelsMatchesSpGEMMCounted(t *testing.T) {
	defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
	rng := rand.New(rand.NewSource(43))
	shapes := []shape{{0, 0, 0}, {3, 2, 1}, {40, 30, 0.2}, {33, 70, 0.5}, {64, 16, 0.9}}
	for _, limit := range []int64{mpi.MaxMessageBytes, 64} {
		mpi.MaxMessageBytes = limit
		for _, sh := range shapes {
			all := globalTriples(rng, sh.nr, sh.nc, sh.density)
			allT := make([]Triple[int64], len(all))
			for i, t := range all {
				allT[i] = Triple[int64]{Row: t.Col, Col: t.Row, Val: t.Val}
			}
			for _, p := range gridSizes {
				err := mpi.Run(p, func(c *mpi.Comm) {
					g := grid.New(c)
					lo, hi := g.MyVecRange(int(sh.nr))
					var got, want int64
					cg := SpGEMMPanels(FromRows(g, sh.nr, sh.nc, rowsOf(all, lo, hi)), plusTimes, &got)
					a := FromGlobalTriples(g, sh.nr, sh.nc, all, nil)
					at := FromGlobalTriples(g, sh.nc, sh.nr, slices.Clone(allT), nil)
					cw := SpGEMMCounted(a, at, plusTimes, Checkerboard(), &want)
					if got != want {
						panic(fmt.Sprintf("products %d from the panels, %d from COO", got, want))
					}
					cg.G, cw.G = nil, nil
					if !reflect.DeepEqual(cg, cw) {
						panic(fmt.Sprintf("C from the panels differs\n got %+v\nwant %+v", cg, cw))
					}
				})
				if err != nil {
					t.Fatalf("MaxMessageBytes=%d %dx%d P=%d: %v", limit, sh.nr, sh.nc, p, err)
				}
			}
		}
	}
}

// TestSpGEMMPanelsNamesTheBuilderOfABadAtFrame: an Aᵀ frame is built by one
// rank, crosses the transposed swap and is broadcast by its receiver, so a
// bad one must name its builder, not only the rank that relayed it. Rank 1
// (grid position (0, 1)) holds the Aᵀ frame rank 2 built; with one of its
// rows moved outside the block it must refuse to multiply it, and so must the
// rank it broadcasts it to, naming both ranks.
func TestSpGEMMPanelsNamesTheBuilderOfABadAtFrame(t *testing.T) {
	const n = 24
	all := globalTriples(rand.New(rand.NewSource(47)), n, n, 1)
	err := mpi.Run(4, func(c *mpi.Comm) {
		c.SetBlocking(true) // a rank that panics leaves no broadcast running
		g := grid.New(c)
		lo, hi := g.MyVecRange(n)
		p := FromRows(g, n, n, rowsOf(all, lo, hi))
		if c.Rank() == 1 {
			p.at = slices.Clone(p.at) // the received frame is rank 2's memory
			tlo, thi := g.MyColRange(n)
			klo, khi := g.MyRowRange(n)
			q, err := decodePanel[int64](p.at, int32(tlo), int32(thi), int32(klo), int32(khi), false)
			if err != nil || len(q.rows) == 0 {
				panic(fmt.Sprintf("rank 1's Aᵀ frame: %d rows, %v", len(q.rows), err))
			}
			q.rows[0] = n // a view of the frame: one k-mer row past the block
		}
		SpGEMMPanels(p, plusTimes, nil)
	})
	if want := "B panel from rank 1, built by rank 2: SUMMA panel row 24 "; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want a panic containing %q", err, want)
	}
}

// TestCheckRowMajor: bounds on all four sides, strictness within and across
// rows, and the empty list; CheckRowGrouped takes the same bounds and compares
// rows only.
func TestCheckRowMajor(t *testing.T) {
	tr := func(r, c int32) Triple[int64] { return Triple[int64]{Row: r, Col: c} }
	ok := [][]Triple[int64]{nil, {tr(2, 5)}, {tr(2, 5), tr(2, 6), tr(3, 5), tr(4, 9)}}
	for _, ts := range ok {
		if err := CheckRowMajor(ts, 2, 5, 5, 10); err != nil {
			t.Errorf("%v: %v", ts, err)
		}
	}
	bad := [][]Triple[int64]{
		{tr(1, 5)}, {tr(5, 5)}, {tr(2, 4)}, {tr(2, 10)},
		{tr(2, 5), tr(2, 5)}, {tr(2, 6), tr(2, 5)}, {tr(3, 5), tr(2, 6)},
	}
	for _, ts := range bad {
		if err := CheckRowMajor(ts, 2, 5, 5, 10); err == nil {
			t.Errorf("%v accepted", ts)
		}
	}
	grouped := [][]Triple[int64]{nil, {tr(2, 5)}, {tr(2, 6), tr(2, 5), tr(2, 6), tr(3, 9), tr(3, 5), tr(4, 5)}}
	for _, ts := range grouped {
		if err := CheckRowGrouped(ts, 2, 5, 5, 10); err != nil {
			t.Errorf("row-grouped %v: %v", ts, err)
		}
	}
	for _, ts := range [][]Triple[int64]{{tr(1, 5)}, {tr(5, 5)}, {tr(2, 4)}, {tr(2, 10)}, {tr(3, 5), tr(2, 6)}, {tr(2, 5), tr(4, 5), tr(3, 5)}} {
		if err := CheckRowGrouped(ts, 2, 5, 5, 10); err == nil {
			t.Errorf("row-grouped %v accepted", ts)
		}
	}
}

// TestColumnProductMatchesSpGEMMCounted: each rank multiplies one block of
// A's columns with its own transpose (ColumnProduct), and NewDist merges the
// partials on C's blocks with Add — deep-equal to SpGEMMCounted(A, Aᵀ,
// Checkerboard()), with the same products summed over the ranks, on every
// shape and grid size, including ranks with no column. Each block, laid out
// by ColumnsFromTriples, gives its triples back; each rank makes two Fold
// calls per nonzero of its block; and a block that is not a split panel of
// its columns panics naming the rank.
func TestColumnProductMatchesSpGEMMCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sum := func(x, y int64) int64 { return x + y }
	for _, sh := range fromRowsShapes(rng) {
		all := globalTriples(rng, sh.nr, sh.nc, sh.density)
		sortTriples(all)
		allT := make([]Triple[int64], len(all))
		for i, t := range all {
			allT[i] = Triple[int64]{Row: t.Col, Col: t.Row, Val: t.Val}
		}
		for _, p := range gridSizes {
			err := mpi.Run(p, func(c *mpi.Comm) {
				g := grid.New(c)
				lo, hi := grid.BlockRange(int(sh.nc), p, c.Rank())
				var mine []Triple[int64]
				for _, t := range all {
					if int(t.Col) >= lo && int(t.Col) < hi {
						mine = append(mine, t)
					}
				}
				var got, want, calls int64
				sr := plusTimes
				sr.Fold = func(acc *Acc[int64], rows []int32, vals []int64, rowLo int32, bv int64) {
					calls++
					plusTimes.Fold(acc, rows, vals, rowLo, bv)
				}
				block := ColumnsFromTriples(int32(lo), int32(hi), mine)
				if !reflect.DeepEqual(block.Triples(), mine) && len(mine) > 0 {
					panic(fmt.Sprintf("rank %d: the block's triples are not the ones it was laid out from", c.Rank()))
				}
				partial := ColumnProduct(c, sh.nr, block, sr, &got)
				if calls != 2*int64(len(mine)) {
					panic(fmt.Sprintf("rank %d: %d Fold calls for %d nonzeros", c.Rank(), calls, len(mine)))
				}
				if err := CheckColMajor(partial, 0, sh.nr, 0, sh.nr); err != nil {
					panic(fmt.Sprintf("rank %d: partial: %v", c.Rank(), err))
				}
				for _, t := range partial {
					if !CheckerboardKeeps(t.Row, t.Col) {
						panic(fmt.Sprintf("rank %d: partial holds cell (%d,%d), which the checkerboard masks", c.Rank(), t.Row, t.Col))
					}
				}
				cg := NewDist(g, sh.nr, sh.nr, partial, plusTimes.Add)
				a := FromGlobalTriples(g, sh.nr, sh.nc, all, nil)
				at := FromGlobalTriples(g, sh.nc, sh.nr, slices.Clone(allT), nil)
				cw := SpGEMMCounted(a, at, plusTimes, Checkerboard(), &want)
				if got, want := mpi.Allreduce(c, got, sum), mpi.Allreduce(c, want, sum); got != want {
					panic(fmt.Sprintf("%d products from the columns, %d from SUMMA", got, want))
				}
				cg.G, cw.G = nil, nil
				if !reflect.DeepEqual(cg, cw) {
					panic(fmt.Sprintf("rank %d: C from the columns differs\n got %+v\nwant %+v", c.Rank(), cg, cw))
				}
			})
			if err != nil {
				t.Fatalf("%dx%d density %.2f P=%d: %v", sh.nr, sh.nc, sh.density, p, err)
			}
		}
	}
	for name, bad := range map[string]Columns[int64]{
		"descending rows":              {Lo: 0, Hi: 1, Starts: []int32{0, 2}, Mid: []int32{2}, Rows: []int32{2, 0}, Vals: []int64{1, 1}},
		"odd row in the even sub-run":  {Lo: 0, Hi: 1, Starts: []int32{0, 2}, Mid: []int32{2}, Rows: []int32{0, 1}, Vals: []int64{1, 1}},
		"row past the matrix":          {Lo: 0, Hi: 1, Starts: []int32{0, 1}, Mid: []int32{0}, Rows: []int32{3}, Vals: []int64{1}},
		"run past the entries":         {Lo: 0, Hi: 1, Starts: []int32{0, 2}, Mid: []int32{1}, Rows: []int32{0}, Vals: []int64{1}},
		"inner bound past the entries": {Lo: 0, Hi: 2, Starts: []int32{0, 5, 1}, Mid: []int32{0, 1}, Rows: []int32{0}, Vals: []int64{1}},
	} {
		err := mpi.Run(1, func(c *mpi.Comm) { ColumnProduct(c, 3, bad, plusTimes, nil) })
		if err == nil || !strings.Contains(err.Error(), "ColumnProduct block of rank 0") {
			t.Fatalf("%s: the block was multiplied (error %v)", name, err)
		}
		// A block of columns is no SUMMA panel, and its refusal says so.
		if strings.Contains(err.Error(), "SUMMA") {
			t.Fatalf("%s: the refusal names a SUMMA panel: %v", name, err)
		}
	}
}
