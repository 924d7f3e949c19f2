package spmat

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// TestSpMVMatchesDense also multiplies -x after x: the second call reuses the
// first one's accumulator, and the first result must not change under it.
func TestSpMVMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := int32(30)
	all := globalTriples(rng, n, n, 0.2)
	xFull := make([]int64, n)
	for i := range xFull {
		xFull[i] = int64(rng.Intn(20) - 10)
	}
	// Dense reference: y_i = Σ_j A(i,j)·x_j.
	want := make([]int64, n)
	for _, tr := range all {
		want[tr.Row] += tr.Val * xFull[tr.Col]
	}
	for _, p := range gridSizes {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			err := mpi.Run(p, func(c *mpi.Comm) {
				g := grid.New(c)
				a := FromGlobalTriples(g, n, n, all, nil)
				x := VecFromGlobal(g, xFull)
				y := SpMV(a, x, plusTimes, 0, plus)
				for i := range x.Local {
					x.Local[i] = -x.Local[i]
				}
				yNeg := SpMV(a, x, plusTimes, 0, plus)
				got, gotNeg := y.AllgatherFull(), yNeg.AllgatherFull()
				if !reflect.DeepEqual(got, want) {
					panic(fmt.Sprintf("SpMV mismatch\n got %v\nwant %v", got, want))
				}
				for i, v := range gotNeg {
					if v != -want[i] {
						panic(fmt.Sprintf("SpMV of -x: y[%d] = %d, want %d", i, v, -want[i]))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSpMVMinSemiring(t *testing.T) {
	// The LACC hooking shape: y_u = min over neighbors v of x_v.
	n := int32(8)
	edges := [][2]int32{{0, 1}, {1, 2}, {3, 4}, {6, 7}}
	var ts []Triple[int64]
	for _, e := range edges {
		ts = append(ts, Triple[int64]{Row: e[0], Col: e[1], Val: 1},
			Triple[int64]{Row: e[1], Col: e[0], Val: 1})
	}
	xFull := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	const inf = int64(1 << 40)
	minOf := func(u, v int64) int64 { return min(u, v) }
	sr := valueSemiring(func(_, x int64) (int64, bool) { return x, true }, minOf)
	want := []int64{20, 10, 20, 50, 40, inf, 80, 70}
	err := mpi.Run(4, func(c *mpi.Comm) {
		g := grid.New(c)
		a := FromGlobalTriples(g, n, n, ts, nil)
		x := VecFromGlobal(g, xFull)
		y := SpMV(a, x, sr, inf, minOf)
		got := y.AllgatherFull()
		if !reflect.DeepEqual(got, want) {
			panic(fmt.Sprintf("min-SpMV: got %v want %v", got, want))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpMVAnnihilation(t *testing.T) {
	// Mul that drops every product leaves the identity everywhere.
	n := int32(6)
	ts := []Triple[int64]{{Row: 0, Col: 1, Val: 1}, {Row: 2, Col: 3, Val: 1}}
	sr := valueSemiring(func(_, _ int64) (int64, bool) { return 0, false }, plus)
	err := mpi.Run(1, func(c *mpi.Comm) {
		g := grid.New(c)
		a := FromGlobalTriples(g, n, n, ts, nil)
		x := VecFromGlobal(g, make([]int64, n))
		y := SpMV(a, x, sr, -7, plus)
		for _, v := range y.AllgatherFull() {
			if v != -7 {
				panic("identity not preserved under annihilation")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
