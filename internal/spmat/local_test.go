package spmat

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// valueSemiring lifts a value-returning product (false annihilates) and an
// addition into the run contract, so test semirings stay one-liners.
func valueSemiring(mul func(a, b int64) (int64, bool), add func(a, b int64) int64) Semiring[int64, int64, int64] {
	return Semiring[int64, int64, int64]{
		Fold: func(acc *Acc[int64], rows []int32, vals []int64, rowLo int32, b int64) {
			for i, r := range rows {
				v, ok := mul(vals[i], b)
				if !ok {
					continue
				}
				if c, live := acc.Slot(r - rowLo); live {
					*c = add(*c, v)
				} else {
					*c = v
					acc.Claim(r - rowLo)
				}
			}
		},
		Add: add,
	}
}

func plus(a, b int64) int64 { return a + b }

// plusTimes is the ordinary (+, ×) semiring on int64.
var plusTimes = valueSemiring(func(a, b int64) (int64, bool) { return a * b, true }, plus)

func randCOO(rng *rand.Rand, nr, nc int32, density float64) COO[int64] {
	var ts []Triple[int64]
	for r := int32(0); r < nr; r++ {
		for c := int32(0); c < nc; c++ {
			if rng.Float64() < density {
				ts = append(ts, Triple[int64]{Row: r, Col: c, Val: int64(rng.Intn(9) + 1)})
			}
		}
	}
	return NewCOO(nr, nc, ts, nil)
}

func toDense(a COO[int64]) [][]int64 {
	d := make([][]int64, a.NR)
	for i := range d {
		d[i] = make([]int64, a.NC)
	}
	for _, t := range a.Ts {
		d[t.Row][t.Col] = t.Val
	}
	return d
}

func denseMul(a, b [][]int64) [][]int64 {
	nr, k, nc := len(a), len(b), len(b[0])
	c := make([][]int64, nr)
	for i := range c {
		c[i] = make([]int64, nc)
		for j := 0; j < nc; j++ {
			var s int64
			for x := 0; x < k; x++ {
				s += a[i][x] * b[x][j]
			}
			c[i][j] = s
		}
	}
	return c
}

func TestNewCOOSortsAndCombines(t *testing.T) {
	ts := []Triple[int64]{
		{Row: 1, Col: 1, Val: 5},
		{Row: 0, Col: 1, Val: 2},
		{Row: 1, Col: 1, Val: 3},
		{Row: 2, Col: 0, Val: 1},
	}
	a := NewCOO(3, 2, ts, func(x, y int64) int64 { return x + y })
	want := []Triple[int64]{
		{Row: 2, Col: 0, Val: 1},
		{Row: 0, Col: 1, Val: 2},
		{Row: 1, Col: 1, Val: 8},
	}
	if !reflect.DeepEqual(a.Ts, want) {
		t.Fatalf("got %v", a.Ts)
	}
}

func TestNewCOOPanicsOnDuplicateWithoutCombiner(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2, 2, []Triple[int64]{{0, 0, 1}, {0, 0, 2}}, nil)
}

func TestNewCOOPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2, 2, []Triple[int64]{{5, 0, 1}}, nil)
}

func TestCSCRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randCOO(rng, int32(rng.Intn(20)+1), int32(rng.Intn(20)+1), 0.3)
		csc := a.ToCSC()
		if csc.NR != a.NR || csc.NC != a.NC || len(csc.JC) != int(a.NC)+1 || csc.JC[0] != 0 ||
			int(csc.JC[a.NC]) != a.Nnz() || len(csc.IR) != a.Nnz() || len(csc.V) != a.Nnz() {
			return false
		}
		// Canonical COO is column-major, so stored entry p is triple p.
		for j := int32(0); j < csc.NC; j++ {
			for p := csc.JC[j]; p < csc.JC[j+1]; p++ {
				if a.Ts[p] != (Triple[int64]{Row: csc.IR[p], Col: j, Val: csc.V[p]}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestColDegree(t *testing.T) {
	a := NewCOO(4, 3, []Triple[int64]{{0, 0, 1}, {1, 0, 1}, {3, 2, 1}}, nil)
	csc := a.ToCSC()
	for j, want := range []int32{2, 0, 1} {
		if got := csc.ColDegree(int32(j)); got != want {
			t.Fatalf("deg(%d) = %d, want %d", j, got, want)
		}
	}
}

func TestMultiplyMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr, k, nc := int32(rng.Intn(15)+1), int32(rng.Intn(15)+1), int32(rng.Intn(15)+1)
		a := randCOO(rng, nr, k, 0.35)
		b := randCOO(rng, k, nc, 0.35)
		got := toDense(COO[int64]{NR: nr, NC: nc, Ts: Multiply(a, b, plusTimes).Ts})
		want := denseMul(toDense(a), toDense(b))
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyAnnihilation(t *testing.T) {
	// A semiring whose product rejects odd results must produce only
	// entries built from surviving products.
	sr := valueSemiring(func(a, b int64) (int64, bool) { v := a * b; return v, v%2 == 0 }, plus)
	a := NewCOO(2, 2, []Triple[int64]{{0, 0, 3}, {0, 1, 2}}, nil)
	b := NewCOO(2, 1, []Triple[int64]{{0, 0, 5}, {1, 0, 7}}, nil)
	got := Multiply(a, b, sr)
	// products: 3*5=15 (dropped), 2*7=14 (kept)
	want := []Triple[int64]{{0, 0, 14}}
	if !reflect.DeepEqual(got.Ts, want) {
		t.Fatalf("got %v", got.Ts)
	}
}
