package spmat

import (
	"fmt"
	"math/rand"
	"reflect"
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

// checkFromRows runs FromRows at P ranks on each rank's rows of all, cut by
// rowsOf and then passed through perturb, and holds A and Aᵀ to the generic
// construction FromRows replaced on the k-mer matrix — NewDist (all-to-all +
// radix sort) then Transpose (all-to-all + radix sort), kept in the package for
// R's symmetrisation and here as the oracle — block by block. The input must
// come back untouched: it is the counting stage's artifact.
func checkFromRows(t *testing.T, all []Triple[int64], nr, nc int32, p int, perturb func(rank int, mine []Triple[int64])) {
	t.Helper()
	err := mpi.Run(p, func(c *mpi.Comm) {
		g := grid.New(c)
		lo, hi := g.MyVecRange(int(nr))
		mine := rowsOf(all, lo, hi)
		perturb(c.Rank(), mine)
		input := slices.Clone(mine)
		a, at := FromRows(g, nr, nc, mine)
		if !reflect.DeepEqual(mine, input) {
			panic("FromRows modified its input")
		}
		wantA := NewDist(g, nr, nc, slices.Clone(mine), nil)
		wantAt := Transpose(wantA, nil)
		a.G, at.G, wantA.G, wantAt.G = nil, nil, nil, nil // compare geometry and content, not the grid pointer
		if !reflect.DeepEqual(a, wantA) {
			panic(fmt.Sprintf("A block differs from NewDist\n got %+v\nwant %+v", a, wantA))
		}
		if !reflect.DeepEqual(at, wantAt) {
			panic(fmt.Sprintf("Aᵀ block differs from Transpose\n got %+v\nwant %+v", at, wantAt))
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
// must give the same A and Aᵀ blocks, which checkFromRows holds to the same
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
// bytes (four int64 triples) every routed block and every transposed block of
// a dense matrix needs several chunks; the blocks must still be those every
// rank cuts from the global triples without communicating.
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
			a, at := FromRows(g, n, n, rowsOf(all, lo, hi))
			wantA := FromGlobalTriples(g, n, n, all, nil)
			wantAt := FromGlobalTriples(g, n, n, slices.Clone(allT), nil)
			if !reflect.DeepEqual(a.Local, wantA.Local) || !reflect.DeepEqual(at.Local, wantAt.Local) {
				panic("chunked FromRows blocks differ from the global triples' blocks")
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

// TestFromRowsRefusesBadInput: everything NewDist + NewCOO caught by routing
// and sorting, the constructor must catch by checking — a duplicate cell
// (adjacent in its column of A), rows out of order (on the input), a row
// outside the rank's grid row, a column outside the matrix, and ranks whose
// row ranges do not ascend with their rank (each input fine on its own, A's
// columns not). Columns out of order within a row are the input's normal
// form and must be accepted. Every rank is given the same kind of input so
// that none is left waiting for a peer that panicked.
func TestFromRowsRefusesBadInput(t *testing.T) {
	const n = 24
	all := globalTriples(rand.New(rand.NewSource(31)), n, n, 1)
	vecRange := func(g *grid.Grid) (int, int) { return g.MyVecRange(n) }
	cases := []struct {
		name    string
		p       int
		rows    func(g *grid.Grid) (lo, hi int)
		corrupt func(g *grid.Grid, mine []Triple[int64]) []Triple[int64]
		want    string // "" when the input must be accepted
	}{
		{"duplicate cell", 4, vecRange, func(_ *grid.Grid, mine []Triple[int64]) []Triple[int64] {
			return slices.Insert(mine, 1, mine[0])
		}, "A block: triple 1 "},
		{"duplicate cell, apart within its row", 1, vecRange, func(_ *grid.Grid, mine []Triple[int64]) []Triple[int64] {
			return slices.Insert(mine, 5, mine[0])
		}, "strict column-major"},
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
		}, "outside"},
		{"column outside the matrix", 4, vecRange, func(_ *grid.Grid, mine []Triple[int64]) []Triple[int64] {
			mine[len(mine)-1].Col = n
			return mine
		}, "outside"},
		{"row ranges descend along the grid row", 4, func(g *grid.Grid) (int, int) {
			return grid.BlockRange(n, 4, g.Rank(g.Row, g.Dim-1-g.Col))
		}, func(_ *grid.Grid, mine []Triple[int64]) []Triple[int64] { return mine }, "A block"},
	}
	for _, tc := range cases {
		err := mpi.Run(tc.p, func(c *mpi.Comm) {
			g := grid.New(c)
			lo, hi := tc.rows(g)
			FromRows(g, n, n, tc.corrupt(g, rowsOf(all, lo, hi)))
		})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want a panic mentioning %q", tc.name, err, tc.want)
		}
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
