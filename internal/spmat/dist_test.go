package spmat

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/obs"
)

var gridSizes = []int{1, 4, 9, 16}

// runGrid executes fn on a P-rank grid for each test grid size.
func runGrid(t *testing.T, fn func(g *grid.Grid)) {
	t.Helper()
	for _, p := range gridSizes {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			err := mpi.Run(p, func(c *mpi.Comm) {
				fn(grid.New(c))
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sameUnderLimit runs op on every rank of a P-rank grid for P 4 and 9, once
// as is and once with mpi.MaxMessageBytes at 64 bytes, where every routed
// part the callers build needs several chunks, and requires each rank's
// result to be the same in both runs.
func sameUnderLimit[R any](t *testing.T, op func(g *grid.Grid) R) {
	t.Helper()
	for _, p := range []int{4, 9} {
		t.Run(fmt.Sprintf("MaxMessageBytes=64/P=%d", p), func(t *testing.T) {
			run := func() []R {
				out := make([]R, p)
				if err := mpi.Run(p, func(c *mpi.Comm) { out[c.Rank()] = op(grid.New(c)) }); err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := run()
			defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
			mpi.MaxMessageBytes = 64
			if got := run(); !reflect.DeepEqual(got, want) {
				t.Fatalf("ranks' results under the limit differ from the unlimited run:\n%v\n%v", got, want)
			}
		})
	}
}

func globalTriples(rng *rand.Rand, nr, nc int32, density float64) []Triple[int64] {
	var ts []Triple[int64]
	for r := int32(0); r < nr; r++ {
		for c := int32(0); c < nc; c++ {
			if rng.Float64() < density {
				ts = append(ts, Triple[int64]{Row: r, Col: c, Val: int64(rng.Intn(9) + 1)})
			}
		}
	}
	return ts
}

func sortTriples(ts []Triple[int64]) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Col != ts[j].Col {
			return ts[i].Col < ts[j].Col
		}
		return ts[i].Row < ts[j].Row
	})
}

func TestNewDistRoutesToOwners(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	all := globalTriples(rng, 37, 23, 0.2)
	runGrid(t, func(g *grid.Grid) {
		// Scatter triples round-robin over ranks as the "producers".
		var mine []Triple[int64]
		for i, tr := range all {
			if i%g.Comm.Size() == g.Comm.Rank() {
				mine = append(mine, tr)
			}
		}
		a := NewDist(g, 37, 23, mine, nil)
		// Every local triple must be inside the block.
		for _, tr := range a.Local.Ts {
			if !a.owns(tr.Row, tr.Col) {
				panic("triple outside block")
			}
		}
		got := a.GatherTriples(0)
		if g.Comm.Rank() == 0 {
			want := append([]Triple[int64](nil), all...)
			sortTriples(want)
			if !reflect.DeepEqual(got, want) {
				panic("gathered triples differ from input")
			}
		}
	})
}

func TestFromGlobalMatchesNewDist(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := globalTriples(rng, 19, 19, 0.25)
	runGrid(t, func(g *grid.Grid) {
		a := FromGlobalTriples(g, 19, 19, all, nil)
		var mine []Triple[int64]
		if g.Comm.Rank() == 0 {
			mine = all
		}
		b := NewDist(g, 19, 19, mine, nil)
		if !reflect.DeepEqual(a.Local, b.Local) {
			panic("FromGlobal and NewDist disagree")
		}
	})
	sameUnderLimit(t, func(g *grid.Grid) COO[int64] {
		var mine []Triple[int64]
		if g.Comm.Rank() == 0 {
			mine = all
		}
		return NewDist(g, 19, 19, mine, nil).Local
	})
}

func TestNnzGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	all := globalTriples(rng, 31, 17, 0.3)
	runGrid(t, func(g *grid.Grid) {
		a := FromGlobalTriples(g, 31, 17, all, nil)
		if a.Nnz() != int64(len(all)) {
			panic("global nnz wrong")
		}
	})
}

func TestTransposeInvolutionAndMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	all := globalTriples(rng, 26, 14, 0.3)
	runGrid(t, func(g *grid.Grid) {
		a := FromGlobalTriples(g, 26, 14, all, nil)
		at := Transpose(a, func(v int64) int64 { return -v })
		if at.NR != 14 || at.NC != 26 {
			panic("transpose dims wrong")
		}
		back := Transpose(at, func(v int64) int64 { return -v })
		got := back.GatherTriples(0)
		if g.Comm.Rank() == 0 {
			want := append([]Triple[int64](nil), all...)
			sortTriples(want)
			if !reflect.DeepEqual(got, want) {
				panic("transpose round-trip failed")
			}
		}
	})
}

func TestSpGEMMMatchesSerialMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nr, k, nc := int32(33), int32(29), int32(21)
	aT := globalTriples(rng, nr, k, 0.2)
	bT := globalTriples(rng, k, nc, 0.2)
	// Serial reference.
	ref := Multiply(NewCOO(nr, k, append([]Triple[int64](nil), aT...), nil),
		NewCOO(k, nc, append([]Triple[int64](nil), bT...), nil), plusTimes)
	runGrid(t, func(g *grid.Grid) {
		a := FromGlobalTriples(g, nr, k, aT, nil)
		b := FromGlobalTriples(g, k, nc, bT, nil)
		c := SpGEMMCounted(a, b, plusTimes, Mask{}, nil)
		got := c.GatherTriples(0)
		if g.Comm.Rank() == 0 {
			if !reflect.DeepEqual(got, ref.Ts) {
				panic("SpGEMM differs from serial reference")
			}
		}
	})
}

func TestSpGEMMSquareAAT(t *testing.T) {
	// The pipeline's shape: C = A·Aᵀ must be symmetric.
	rng := rand.New(rand.NewSource(7))
	nr, k := int32(24), int32(40)
	aT := globalTriples(rng, nr, k, 0.15)
	runGrid(t, func(g *grid.Grid) {
		a := FromGlobalTriples(g, nr, k, aT, nil)
		at := Transpose(a, nil)
		c := SpGEMMCounted(a, at, plusTimes, Mask{}, nil)
		got := c.GatherTriples(0)
		if g.Comm.Rank() == 0 {
			m := map[[2]int32]int64{}
			for _, tr := range got {
				m[[2]int32{tr.Row, tr.Col}] = tr.Val
			}
			for _, tr := range got {
				if m[[2]int32{tr.Col, tr.Row}] != tr.Val {
					panic("A·Aᵀ not symmetric")
				}
			}
		}
	})
}

func TestApplyPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	all := globalTriples(rng, 20, 20, 0.4)
	runGrid(t, func(g *grid.Grid) {
		a := FromGlobalTriples(g, 20, 20, all, nil)
		a.Apply(func(r, c int32, v int64) (int64, bool) {
			return v * 10, v%2 == 0 // keep evens, scale by 10
		})
		got := a.GatherTriples(0)
		if g.Comm.Rank() == 0 {
			var want []Triple[int64]
			for _, tr := range all {
				if tr.Val%2 == 0 {
					want = append(want, Triple[int64]{tr.Row, tr.Col, tr.Val * 10})
				}
			}
			sortTriples(want)
			if !reflect.DeepEqual(got, want) {
				panic("apply/prune mismatch")
			}
		}
	})
}

// TestPruneToEmptyIsCanonical: a block pruned to nothing must be the nil
// canonical form NewCOO documents, so it equals a freshly built empty block.
func TestPruneToEmptyIsCanonical(t *testing.T) {
	all := globalTriples(rand.New(rand.NewSource(8)), 20, 20, 0.4)
	runGrid(t, func(g *grid.Grid) {
		empty := FromGlobalTriples[int64](g, 20, 20, nil, nil)
		a := FromGlobalTriples(g, 20, 20, all, nil)
		a.Apply(func(_, _ int32, v int64) (int64, bool) { return v, false })
		b := FromGlobalTriples(g, 20, 20, all, nil)
		ids := make([]int32, 20)
		for i := range ids {
			ids[i] = int32(i)
		}
		b.MaskRowsCols(ids)
		if !reflect.DeepEqual(a.Local, empty.Local) || !reflect.DeepEqual(b.Local, empty.Local) {
			panic("block pruned to empty is not the canonical nil form")
		}
	})
}

func TestRowDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := int32(41)
	all := globalTriples(rng, n, n, 0.15)
	wantDeg := make([]int32, n)
	for _, tr := range all {
		wantDeg[tr.Row]++
	}
	runGrid(t, func(g *grid.Grid) {
		a := FromGlobalTriples(g, n, n, all, nil)
		bytes0, msgs0 := g.Comm.BytesSent(), g.Comm.MsgsSent()
		deg := a.RowDegrees()
		// One reduce-scatter: each rank sends every peer of its grid row that
		// peer's vector block, one message each, and nothing else.
		rowLo, rowHi := g.MyRowRange(int(n))
		wantBytes := 4 * int64(rowHi-rowLo-len(deg.Local))
		if b, m := g.Comm.BytesSent()-bytes0, g.Comm.MsgsSent()-msgs0; b != wantBytes || m != int64(g.Dim-1) {
			panic(fmt.Sprintf("rank %d sent %d bytes in %d messages, want %d in %d", g.Comm.Rank(), b, m, wantBytes, g.Dim-1))
		}
		full := deg.AllgatherFull()
		if !reflect.DeepEqual(full, wantDeg) {
			panic(fmt.Sprintf("degrees %v want %v", full, wantDeg))
		}
	})
	// Vector blocks of 22 or more entries at P = 9: each rank's part of the
	// reduce-scatter needs two chunks.
	big := int32(200)
	allBig := globalTriples(rng, big, big, 0.05)
	sameUnderLimit(t, func(g *grid.Grid) []int32 {
		return FromGlobalTriples(g, big, big, allBig, nil).RowDegrees().Local
	})
}

func TestMaskRowsCols(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := int32(25)
	all := globalTriples(rng, n, n, 0.3)
	mask := []int32{3, 11, 19}
	runGrid(t, func(g *grid.Grid) {
		a := FromGlobalTriples(g, n, n, all, nil)
		a.MaskRowsCols(mask)
		got := a.GatherTriples(0)
		if g.Comm.Rank() == 0 {
			bad := map[int32]bool{3: true, 11: true, 19: true}
			var want []Triple[int64]
			for _, tr := range all {
				if !bad[tr.Row] && !bad[tr.Col] {
					want = append(want, tr)
				}
			}
			sortTriples(want)
			if !reflect.DeepEqual(got, want) {
				panic("mask mismatch")
			}
		}
	})
}

func TestAddMerges(t *testing.T) {
	runGrid(t, func(g *grid.Grid) {
		a := FromGlobalTriples(g, 10, 10, []Triple[int64]{{1, 1, 5}, {2, 3, 7}}, nil)
		b := FromGlobalTriples(g, 10, 10, []Triple[int64]{{1, 1, 3}, {4, 4, 1}}, nil)
		c := Add(a, b, func(x, y int64) int64 { return x + y })
		got := c.GatherTriples(0)
		if g.Comm.Rank() == 0 {
			want := []Triple[int64]{{1, 1, 8}, {2, 3, 7}, {4, 4, 1}}
			sortTriples(want)
			if !reflect.DeepEqual(got, want) {
				panic(fmt.Sprintf("add mismatch: %v", got))
			}
		}
	})
}

// TestDistVecFullAndRowCol checks AllgatherFull and RowColGather against the
// global vector on every grid size, and RowColGather again with
// mpi.MaxMessageBytes at 64 bytes (eight entries) at P 4 and 9, where every
// row block and every swap needs several chunks.
func TestDistVecFullAndRowCol(t *testing.T) {
	n := 35
	full := make([]int64, n)
	for i := range full {
		full[i] = int64(i * i)
	}
	checkRowCol := func(g *grid.Grid) {
		rowVals, colVals := VecFromGlobal(g, full).RowColGather()
		rlo, rhi := g.MyRowRange(n)
		if len(rowVals) != rhi-rlo {
			panic("row span wrong")
		}
		for i, val := range rowVals {
			if val != full[rlo+i] {
				panic("row value wrong")
			}
		}
		clo, chi := g.MyColRange(n)
		if len(colVals) != chi-clo {
			panic("col span wrong")
		}
		for i, val := range colVals {
			if val != full[clo+i] {
				panic("col value wrong")
			}
		}
	}
	runGrid(t, func(g *grid.Grid) {
		if !reflect.DeepEqual(VecFromGlobal(g, full).AllgatherFull(), full) {
			panic("allgather full wrong")
		}
		checkRowCol(g)
	})
	t.Run("MaxMessageBytes=64", func(t *testing.T) {
		defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
		mpi.MaxMessageBytes = 64
		for _, p := range []int{4, 9} {
			if err := mpi.Run(p, func(c *mpi.Comm) { checkRowCol(grid.New(c)) }); err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
		}
	})
}

func TestDistVecFetch(t *testing.T) {
	n := 29
	full := make([]int32, n)
	for i := range full {
		full[i] = int32(i * 3)
	}
	runGrid(t, func(g *grid.Grid) {
		v := VecFromGlobal(g, full)
		// Every rank fetches a different stride, with duplicates.
		var ids []int32
		for i := g.Comm.Rank() % 3; i < n; i += 3 {
			ids = append(ids, int32(i), int32(i))
		}
		got := v.Fetch(ids)
		for k, id := range ids {
			if got[k] != full[id] {
				panic("fetch value wrong")
			}
		}
	})
	// Every index eight times over: each owner is asked for at least 24 ids.
	sameUnderLimit(t, func(g *grid.Grid) []int32 {
		var ids []int32
		for i := range 8 * n {
			ids = append(ids, int32((i+g.Comm.Rank())%n))
		}
		return VecFromGlobal(g, full).Fetch(ids)
	})
}

func TestScatterMin(t *testing.T) {
	n := 12
	runGrid(t, func(g *grid.Grid) {
		full := make([]int32, n)
		for i := range full {
			full[i] = 100
		}
		v := VecFromGlobal(g, full)
		// Every rank proposes rank+5 at index (rank mod n): min wins.
		idx := []int32{int32(g.Comm.Rank() % n)}
		vals := []int32{int32(g.Comm.Rank() + 5)}
		ScatterMin(v, idx, vals)
		out := v.AllgatherFull()
		for i := 0; i < n; i++ {
			want := int32(100)
			for r := 0; r < g.Comm.Size(); r++ {
				if r%n == i && int32(r+5) < want {
					want = int32(r + 5)
				}
			}
			if out[i] != want {
				panic(fmt.Sprintf("scatter-min idx %d: got %d want %d", i, out[i], want))
			}
		}
		// A sum fold through ScatterFold: every rank adds rank+1 at each
		// index k·(rank+1), so an index gathers from every rank whose stride
		// divides it, on whichever rank owns it.
		sum := NewDistVec[int64](g, n)
		var sIdx []int32
		var sVals []int64
		for k := 0; k < n; k += g.Comm.Rank() + 1 {
			sIdx, sVals = append(sIdx, int32(k)), append(sVals, int64(g.Comm.Rank()+1))
		}
		ScatterFold(sum, sIdx, sVals, func(x, y int64) int64 { return x + y })
		for i, got := range sum.AllgatherFull() {
			var want int64
			for r := 0; r < g.Comm.Size(); r++ {
				if i%(r+1) == 0 {
					want += int64(r + 1)
				}
			}
			if got != want {
				panic(fmt.Sprintf("scatter-sum idx %d: got %d want %d", i, got, want))
			}
		}
	})
	// Every rank proposes at every index of a 72-entry vector: each owner
	// gets eight or more proposals from each rank.
	sameUnderLimit(t, func(g *grid.Grid) []int64 {
		sum := NewDistVec[int64](g, 72)
		idx := make([]int32, 72)
		vals := make([]int64, 72)
		for i := range idx {
			idx[i], vals[i] = int32(i), int64(g.Comm.Rank()*i)
		}
		ScatterFold(sum, idx, vals, func(x, y int64) int64 { return x + y })
		return sum.Local
	})
}

// parityTriples is globalTriples with long single-parity runs mixed in: of
// the columns, a third keep only their even rows and a third only their odd
// rows.
func parityTriples(rng *rand.Rand, nr, nc int32, density float64) []Triple[int64] {
	return slices.DeleteFunc(globalTriples(rng, nr, nc, density), func(t Triple[int64]) bool {
		return t.Col%3 < 2 && t.Row%2 != t.Col%3
	})
}

// patternOf is the pattern mask of the cells of [0,nr)×[0,nc) that keep
// keeps, canonical, each cell holding a seed of its own (1000·row + col + 1):
// the value SpGEMMInto must fold into, and leave alone where no walk reaches.
func patternOf(nr, nc int32, keep func(r, c int32) bool) []Triple[int64] {
	var ts []Triple[int64]
	for c := int32(0); c < nc; c++ {
		for r := int32(0); r < nr; r++ {
			if keep(r, c) {
				ts = append(ts, Triple[int64]{Row: r, Col: c, Val: int64(1000*r + c + 1)})
			}
		}
	}
	return ts
}

// into runs SpGEMMInto of a ⊗ b under mask with out seeded from the mask
// block's values, and returns the block with the values it folded, the form
// seededRef gives the reference.
func into(a, b *Dist[int64], sr Semiring[int64, int64, int64], mask *Dist[int64], products *int64) COO[int64] {
	out := make([]int64, len(mask.Local.Ts))
	for i, t := range mask.Local.Ts {
		out[i] = t.Val
	}
	SpGEMMInto(a, b, sr, mask, out, products)
	got := mask.Local.Clone()
	if len(got.Ts) == 0 {
		got.Ts = nil
	}
	for i := range got.Ts {
		got.Ts[i].Val = out[i]
	}
	return got
}

// seededRef is what SpGEMMInto must leave in mask's cells, given want, the
// reference product already restricted to them: each cell's seed plus its
// product value, or its seed alone where want has no entry — no walk reached
// it, or every product annihilated. Both semirings of the tests add.
func seededRef(mask, want *Dist[int64]) COO[int64] {
	vals := make(map[[2]int32]int64, len(want.Local.Ts))
	for _, t := range want.Local.Ts {
		vals[[2]int32{t.Row, t.Col}] = t.Val
	}
	ref := mask.Local.Clone()
	if len(ref.Ts) == 0 {
		ref.Ts = nil
	}
	for i, t := range ref.Ts {
		ref.Ts[i].Val += vals[[2]int32{t.Row, t.Col}]
	}
	return ref
}

// TestMaskedSpGEMMMatchesMapThenApply pins the fused kernels — mask applied
// before the product, kept stretches of A's runs folded in place by the
// semiring's Fold — to the map oracle (one product per Fold) followed by
// a post-hoc Apply(keep), block by block (so empty blocks must be the same
// canonical nil on both sides), every mask shape, a plain and an annihilating
// semiring, both schedules, P ∈ {1, 4, 9, 16}. The zero mask and the
// checkerboard go through SpGEMMCounted; every other mask is a pattern mask,
// a matrix holding the kept cells, through SpGEMMInto, whose cells start at
// their own seeds and must end at seed plus reference, or at the seed where
// the reference has no entry. Shapes are random small rectangles, then
// outputs of at least 200×200 over a short inner dimension, so A's column
// runs are long, a third of them even rows only and a third odd rows only,
// and grid blocks lie wholly above or below the diagonal. The product counter
// must equal the brute-force count of products on kept cells, annihilated
// ones included. The checkerboard runs twice — through its parity sub-runs
// (Checkerboard) and as a pattern mask — against one reference. Neither
// operand nor the mask may change on any rank: the sender splits while it
// encodes its block into a panel frame, and every rank multiplies views of
// that frame.
func TestMaskedSpGEMMMatchesMapThenApply(t *testing.T) {
	type maskCase struct {
		mask    Mask
		pattern bool // the kept cells are SpGEMMInto's pattern mask, not mask
		keep    func(r, c int32) bool
	}
	semirings := []Semiring[int64, int64, int64]{plusTimes, valueSemiring(oddProduct, plus)}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 28; trial++ {
		nr, k, nc := int32(1+rng.Intn(30)), int32(1+rng.Intn(30)), int32(1+rng.Intn(30))
		aDensity, bDensity := rng.Float64()*0.4, rng.Float64()*0.4
		gen := globalTriples
		if trial >= 24 {
			nr, k, nc = int32(200+rng.Intn(60)), int32(4+rng.Intn(12)), int32(200+rng.Intn(60))
			aDensity, bDensity, gen = 0.3, 0.3, parityTriples
		}
		aT := gen(rng, nr, k, aDensity)
		bT := globalTriples(rng, k, nc, bDensity)
		salt := rng.Int31()
		// Each mask with the predicate it must equal; the checkerboard appears
		// as parity sub-runs and as a pattern.
		all := func(_, _ int32) bool { return true }
		checker := func(r, c int32) bool { return r != c && ((r+c)%2 == 0) == (r < c) }
		pat := func(keep func(r, c int32) bool) maskCase { return maskCase{pattern: true, keep: keep} }
		masks := map[string]maskCase{
			"zero":            {mask: Mask{}, keep: all},
			"all":             pat(all),
			"none":            pat(func(_, _ int32) bool { return false }),
			"diagonal":        pat(func(r, c int32) bool { return r == c }),
			"checker-pattern": pat(checker),
			"checker-board":   {mask: Checkerboard(), keep: checker},
			"random":          pat(func(r, c int32) bool { return (r*31+c*17+salt)%3 != 0 }),
		}
		sr := semirings[trial%2]
		ref := multiplyMap(NewCOO(nr, k, append([]Triple[int64](nil), aT...), nil).ToCSC(),
			NewCOO(k, nc, append([]Triple[int64](nil), bT...), nil).ToCSC(), sr)
		for name, mc := range masks {
			keep := mc.keep
			var wantProducts int64
			for _, at := range aT {
				for _, bt := range bT {
					if at.Col == bt.Row && keep(at.Row, bt.Col) {
						wantProducts++
					}
				}
			}
			var patT []Triple[int64]
			if mc.pattern {
				patT = patternOf(nr, nc, keep)
			}
			for _, p := range gridSizes {
				err := mpi.Run(p, func(c *mpi.Comm) {
					g := grid.New(c)
					a := FromGlobalTriples(g, nr, k, aT, nil)
					b := FromGlobalTriples(g, k, nc, bT, nil)
					aWas, bWas := a.Local, b.Local
					aWas.Ts, bWas.Ts = slices.Clone(aWas.Ts), slices.Clone(bWas.Ts)
					want := FromGlobalTriples(g, nr, nc, ref.Ts, nil)
					want.Apply(func(r, c int32, v int64) (int64, bool) { return v, keep(r, c) })
					wantLocal := want.Local
					var mask *Dist[int64]
					if mc.pattern {
						mask = FromGlobalTriples(g, nr, nc, patT, nil)
						wantLocal = seededRef(mask, want)
					}
					var maskWas COO[int64]
					if mask != nil {
						maskWas = mask.Local.Clone()
					}
					var prodSync, prodAsync int64
					for i, prod := range []*int64{&prodSync, &prodAsync} {
						var got COO[int64]
						mpitest.InMode(c, i == 1, func() {
							if mask != nil {
								got = into(a, b, sr, mask, prod)
							} else {
								got = SpGEMMCounted(a, b, sr, mc.mask, prod).Local
							}
						})
						if !reflect.DeepEqual(got, wantLocal) {
							panic(fmt.Sprintf("masked SpGEMM block differs from multiplyMap+Apply\n got %v\nwant %v", got, wantLocal))
						}
						if !reflect.DeepEqual(a.Local, aWas) || !reflect.DeepEqual(b.Local, bWas) {
							panic("SpGEMM changed an operand's local block")
						}
						if mask != nil && !slices.Equal(mask.Local.Ts, maskWas.Ts) {
							panic("SpGEMMInto changed its mask's block")
						}
					}
					sum := func(x, y int64) int64 { return x + y }
					if s, as := mpi.Allreduce(c, prodSync, sum), mpi.Allreduce(c, prodAsync, sum); s != wantProducts || as != wantProducts {
						panic(fmt.Sprintf("products sync=%d async=%d, want %d", s, as, wantProducts))
					}
				})
				if err != nil {
					t.Fatalf("trial %d (%dx%dx%d) mask=%s P=%d: %v", trial, nr, k, nc, name, p, err)
				}
			}
		}
	}
}

// TestSpGEMMIntoEdgeMasks runs SpGEMMInto against the same map-then-apply
// reference on the masks at the edges of its column walk, P ∈ {1, 4, 9, 16},
// both schedules: an empty mask (nothing folded, no product, no Fold call),
// a mask column whose B column is empty, and mask cells no walk reaches (A's
// row 5 is empty), which must all keep their seeds exactly. The operand is
// square and multiplied by itself under the mask of its own pattern plus
// those cells, as transitive reduction multiplies S ⊗ S, so A and B share
// one broadcast frame.
func TestSpGEMMIntoEdgeMasks(t *testing.T) {
	const n = int32(40)
	rng := rand.New(rand.NewSource(43))
	sT := slices.DeleteFunc(globalTriples(rng, n, n, 0.15), func(t Triple[int64]) bool { return t.Row == 5 || t.Col == 7 })
	ref := multiplyMap(NewCOO(n, n, slices.Clone(sT), nil).ToCSC(), NewCOO(n, n, slices.Clone(sT), nil).ToCSC(), plusTimes)
	unreached := func(r, c int32) bool { return r == 5 || c == 7 }
	inS := make(map[[2]int32]bool, len(sT))
	for _, t := range sT {
		inS[[2]int32{t.Row, t.Col}] = true
	}
	masks := map[string]func(r, c int32) bool{
		"empty":             func(_, _ int32) bool { return false },
		"column-without-B":  func(_, c int32) bool { return c == 7 },
		"unreached-cells":   func(r, c int32) bool { return r == 5 && c%3 == 0 },
		"pattern-and-edges": func(r, c int32) bool { return inS[[2]int32{r, c}] || r == 5 && c%3 == 0 || c == 7 && r%2 == 0 },
	}
	for name, keep := range masks {
		patT := patternOf(n, n, keep)
		for _, p := range gridSizes {
			w := mpi.NewWorld(p)
			metrics := obs.NewMetricSet(p)
			w.SetObs(nil, metrics)
			err := w.Run(func(c *mpi.Comm) {
				g := grid.New(c)
				s := FromGlobalTriples(g, n, n, sT, nil)
				mask := FromGlobalTriples(g, n, n, patT, nil)
				want := FromGlobalTriples(g, n, n, ref.Ts, nil)
				want.Apply(func(r, c int32, v int64) (int64, bool) { return v, keep(r, c) })
				wantLocal := seededRef(mask, want)
				for i := range 2 {
					var products int64
					var got COO[int64]
					mpitest.InMode(c, i == 1, func() { got = into(s, s, plusTimes, mask, &products) })
					if !reflect.DeepEqual(got, wantLocal) {
						panic(fmt.Sprintf("SpGEMMInto block differs from multiplyMap+Apply\n got %v\nwant %v", got, wantLocal))
					}
					for k, t := range got.Ts {
						if unreached(t.Row, t.Col) && t.Val != mask.Local.Ts[k].Val {
							panic(fmt.Sprintf("cell (%d,%d) no walk reaches holds %d, not its seed %d", t.Row, t.Col, t.Val, mask.Local.Ts[k].Val))
						}
					}
					if name == "empty" && products != 0 {
						panic(fmt.Sprintf("an empty mask formed %d products", products))
					}
				}
				if name == "empty" {
					if calls := c.Metrics().Counter("spmat.fold_calls").Value(); calls != 0 {
						panic(fmt.Sprintf("an empty mask made %d Fold calls", calls))
					}
				}
			})
			if err != nil {
				t.Fatalf("mask=%s P=%d: %v", name, p, err)
			}
		}
	}
}

// TestSpGEMMIntoRefusesBadMask: a mask block that is not column-major, or an
// output whose length is not the mask block's, panics on the rank that holds
// it, naming that rank.
func TestSpGEMMIntoRefusesBadMask(t *testing.T) {
	const n = int32(16)
	sT := globalTriples(rand.New(rand.NewSource(47)), n, n, 0.5)
	cases := map[string]struct {
		spoil func(mask *Dist[int64], out []int64) []int64
		want  string
	}{
		"row order": {func(mask *Dist[int64], out []int64) []int64 {
			ts := mask.Local.Ts
			ts[0], ts[1] = ts[1], ts[0]
			return out
		}, "SpGEMMInto mask block of rank 2: "},
		"short output": {func(_ *Dist[int64], out []int64) []int64 { return out[1:] },
			"SpGEMMInto on rank 2: "},
	}
	for name, tc := range cases {
		err := mpi.Run(4, func(c *mpi.Comm) {
			g := grid.New(c)
			s := FromGlobalTriples(g, n, n, sT, nil)
			mask := s.Clone()
			out := make([]int64, len(mask.Local.Ts))
			if c.Rank() == 2 {
				out = tc.spoil(mask, out)
			}
			SpGEMMInto(s, s, plusTimes, mask, out, nil)
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want a panic containing %q", name, err, tc.want)
		}
	}
}

// TestFoldCallCounts pins the run contract's call budget per rank: the zero
// mask makes exactly one Fold call per B entry the rank multiplies, the
// checkerboard at most two, and a pattern mask through SpGEMMInto — one call
// per maximal stretch of an A run over mask cells — at most one per kept
// product. The spmat.fold_calls and spmat.spgemm_products counters must
// publish exactly the calls made and the products counted.
func TestFoldCallCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	nr, k, nc := int32(120), int32(12), int32(110)
	aT := parityTriples(rng, nr, k, 0.3)
	bT := globalTriples(rng, k, nc, 0.3)
	patT := patternOf(nr, nc, func(r, c int32) bool { return (r*7+c)%5 < 3 })
	masks := []struct {
		name    string
		mask    Mask
		pattern bool
		// budget is the most Fold calls allowed for bEntries B entries and
		// products kept products.
		budget func(bEntries, products int64) int64
	}{
		{"zero", Mask{}, false, func(b, _ int64) int64 { return b }},
		{"checkerboard", Checkerboard(), false, func(b, _ int64) int64 { return 2 * b }},
		{"pattern", Mask{}, true, func(_, p int64) int64 { return p }},
	}
	for _, mc := range masks {
		for _, p := range gridSizes {
			w := mpi.NewWorld(p)
			metrics := obs.NewMetricSet(p)
			w.SetObs(nil, metrics)
			err := w.Run(func(c *mpi.Comm) {
				g := grid.New(c)
				a := FromGlobalTriples(g, nr, k, aT, nil)
				b := FromGlobalTriples(g, k, nc, bT, nil)
				var calls, products, bEntries int64
				sr := plusTimes
				sr.Fold = func(acc *Acc[int64], rows []int32, vals []int64, rowLo int32, bv int64) {
					calls++
					plusTimes.Fold(acc, rows, vals, rowLo, bv)
				}
				if mc.pattern {
					into(a, b, sr, FromGlobalTriples(g, nr, nc, patT, nil), &products)
				} else {
					SpGEMMCounted(a, b, sr, mc.mask, &products)
				}
				for _, bt := range bT {
					if bt.Col >= b.ColLo && bt.Col < b.ColHi {
						bEntries++
					}
				}
				if budget := mc.budget(bEntries, products); calls > budget || (mc.name == "zero" && calls != budget) {
					panic(fmt.Sprintf("%d Fold calls for %d B entries and %d products", calls, bEntries, products))
				}
				reg := c.Metrics()
				if got := reg.Counter("spmat.fold_calls").Value(); got != calls {
					panic(fmt.Sprintf("spmat.fold_calls = %d, made %d", got, calls))
				}
				if got := reg.Counter("spmat.spgemm_products").Value(); got != products {
					panic(fmt.Sprintf("spmat.spgemm_products = %d, counted %d", got, products))
				}
			})
			if err != nil {
				t.Fatalf("mask=%s P=%d: %v", mc.name, p, err)
			}
		}
	}
}

// TestSpGEMMRefusesUnsortedPanelRows: the checkerboard's prefix/suffix cut is
// correct only if every A column's rows strictly ascend, so indexing the
// panel panics on a row that does not follow its predecessor — a hand-built
// P = 1 block, past NewCOO's canonical form, whose column 1 holds its rows
// descending or one row twice.
func TestSpGEMMRefusesUnsortedPanelRows(t *testing.T) {
	tr := func(r, c int32) Triple[int64] { return Triple[int64]{Row: r, Col: c, Val: 1} }
	for name, ts := range map[string][]Triple[int64]{
		"descending": {tr(0, 0), tr(5, 1), tr(2, 1), tr(3, 2)},
		"repeated":   {tr(0, 0), tr(2, 1), tr(2, 1), tr(3, 2)},
	} {
		err := mpi.Run(1, func(c *mpi.Comm) {
			g := grid.New(c)
			a := FromGlobalTriples[int64](g, 8, 3, nil, nil)
			a.Local.Ts = ts
			b := FromGlobalTriples(g, 3, 8, []Triple[int64]{tr(1, 4)}, nil)
			SpGEMMCounted(a, b, plusTimes, Checkerboard(), nil)
		})
		if err == nil || !strings.Contains(err.Error(), "does not strictly ascend") {
			t.Errorf("%s: error %v, want a panic naming the row order", name, err)
		}
	}
}

// TestCheckerboardKeepsIsTheMask: the cell predicate is the rule the
// Checkerboard mask documents, and keeps exactly one direction of every
// off-diagonal pair.
func TestCheckerboardKeepsIsTheMask(t *testing.T) {
	for r := int32(0); r < 64; r++ {
		for c := int32(0); c < 64; c++ {
			want := r != c && ((r+c)%2 == 0) == (r < c)
			if got := CheckerboardKeeps(r, c); got != want {
				t.Fatalf("CheckerboardKeeps(%d, %d) = %v, want %v", r, c, got, want)
			}
			if r != c && CheckerboardKeeps(r, c) == CheckerboardKeeps(c, r) {
				t.Fatalf("cells (%d,%d) and (%d,%d) are both kept or both masked", r, c, c, r)
			}
		}
	}
}
