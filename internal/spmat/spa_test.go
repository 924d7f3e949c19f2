package spmat

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// newCOOSortRef is the pre-radix NewCOO reference: a global comparison sort
// followed by the same dedup pass. The differential tests pin the
// column-clustered / bucketing / fallback paths to it.
func newCOOSortRef[T any](nr, nc int32, ts []Triple[T], combine func(T, T) T) COO[T] {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= nr || t.Col < 0 || t.Col >= nc {
			panic("ref: triple out of range")
		}
	}
	sort.SliceStable(ts, func(i, j int) bool {
		if ts[i].Col != ts[j].Col {
			return ts[i].Col < ts[j].Col
		}
		return ts[i].Row < ts[j].Row
	})
	out := ts[:0]
	for _, t := range ts {
		if n := len(out); n > 0 && out[n-1].Row == t.Row && out[n-1].Col == t.Col {
			if combine == nil {
				panic("ref: duplicate without combiner")
			}
			out[n-1].Val = combine(out[n-1].Val, t.Val)
			continue
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		out = nil
	}
	return COO[T]{NR: nr, NC: nc, Ts: out}
}

// TestNewCOOMatchesSortReference drives every sortColumnMajor path —
// clustered input, dense-enough-to-bucket shuffles, and the hypersparse
// fallback — with duplicates, against the comparison-sort reference.
func TestNewCOOMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nr := int32(1 + rng.Intn(40))
		// Mix shapes: small nc (bucket path), huge nc (fallback path).
		nc := int32(1 + rng.Intn(40))
		if trial%5 == 0 {
			nc = int32(1 << 20)
		}
		n := rng.Intn(120)
		ts := make([]Triple[int64], n)
		for i := range ts {
			c := rng.Int31n(nc)
			if nc > 1000 {
				c = rng.Int31n(50) * (nc / 64) // sparse spread over the huge range
			}
			ts[i] = Triple[int64]{Row: rng.Int31n(nr), Col: c, Val: int64(rng.Intn(50))}
		}
		if trial%3 == 0 {
			// Column-clustered variant (the SPA emission shape).
			sort.SliceStable(ts, func(i, j int) bool { return ts[i].Col < ts[j].Col })
		}
		ref := newCOOSortRef(nr, nc, append([]Triple[int64](nil), ts...), func(a, b int64) int64 { return a + b })
		got := NewCOO(nr, nc, append([]Triple[int64](nil), ts...), func(a, b int64) int64 { return a + b })
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d (nr=%d nc=%d n=%d): NewCOO diverged from sort reference", trial, nr, nc, n)
		}
	}
}

// TestNewCOOStableCombineOrder checks duplicates combine in input order on
// every path — the property the distributed SpGEMM merge relies on for
// bit-reproducible accumulation.
func TestNewCOOStableCombineOrder(t *testing.T) {
	first := func(a, b []int32) []int32 { return append(append([]int32(nil), a...), b...) }
	mk := func(vals ...int32) []Triple[[]int32] {
		ts := make([]Triple[[]int32], len(vals))
		for i, v := range vals {
			ts[i] = Triple[[]int32]{Row: 1, Col: 2, Val: []int32{v}}
		}
		return ts
	}
	// All duplicates of one cell, plus clutter to steer path choice.
	for _, pad := range []int{0, 3000} {
		ts := mk(10, 20, 30)
		for i := 0; i < pad; i++ {
			ts = append(ts, Triple[[]int32]{Row: int32(i % 7), Col: int32(i % 11), Val: nil})
		}
		got := NewCOO(40, 4000, ts, first)
		for _, tr := range got.Ts {
			if tr.Row == 1 && tr.Col == 2 {
				if !reflect.DeepEqual(tr.Val, []int32{10, 20, 30}) {
					t.Fatalf("pad=%d: combine order %v, want input order", pad, tr.Val)
				}
			}
		}
	}
}

// TestMultiplyMatchesMapKernel pins the SPA Gustavson kernel to the retained
// map-based reference on random matrices under (+,×).
func TestMultiplyMatchesMapKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		nr := int32(1 + rng.Intn(30))
		k := int32(1 + rng.Intn(30))
		nc := int32(1 + rng.Intn(30))
		a := randCOO(rng, nr, k, rng.Float64()*0.4)
		b := randCOO(rng, k, nc, rng.Float64()*0.4)
		got := Multiply(a, b, plusTimes)
		ref := multiplyMap(a.ToCSC(), b.ToCSC(), plusTimes)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: SPA multiply diverged from map reference", trial)
		}
	}
}

// oddProduct annihilates even products.
func oddProduct(a, b int64) (int64, bool) { p := a * b; return p, p%2 == 1 }

// TestMultiplyMatchesMapKernelAnnihilation repeats the differential check
// under a semiring whose product annihilates (the candidate-matrix pattern):
// rows whose every product annihilates must not appear.
func TestMultiplyMatchesMapKernelAnnihilation(t *testing.T) {
	odd := valueSemiring(oddProduct, plus)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		nr := int32(1 + rng.Intn(25))
		k := int32(1 + rng.Intn(25))
		nc := int32(1 + rng.Intn(25))
		a := randCOO(rng, nr, k, 0.3)
		b := randCOO(rng, k, nc, 0.3)
		got := Multiply(a, b, odd)
		ref := multiplyMap(a.ToCSC(), b.ToCSC(), odd)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: annihilating multiply diverged from map reference", trial)
		}
	}
}

// TestMultiplyEmptyOperands checks the canonical nil form survives the SPA
// path (no touched rows must mean no emitted triples).
func TestMultiplyEmptyOperands(t *testing.T) {
	empty := COO[int64]{NR: 5, NC: 4}
	b := randCOO(rand.New(rand.NewSource(3)), 4, 6, 0.5)
	if got := Multiply(empty, b, plusTimes); got.Ts != nil || got.NR != 5 || got.NC != 6 {
		t.Fatalf("empty ⊗ b = %+v, want nil triples", got)
	}
}

// TestSPAGenerationWraparound forces the uint32 generation counter over its
// wrap and checks stale tags cannot leak rows between columns.
func TestSPAGenerationWraparound(t *testing.T) {
	fold := func(s *Acc[int64], row int32, a, b int64) {
		plusTimes.Fold(s, []int32{row}, []int64{a}, 0, b)
	}
	s := newAcc[int64](4)
	s.cur = ^uint32(0) - 1 // two resets from wrapping
	s.reset()
	fold(s, 2, 7, 1)
	s.reset() // wraps: gen array must be hard-cleared
	if s.cur != 1 {
		t.Fatalf("cur = %d after wrap, want 1", s.cur)
	}
	if len(s.rows) != 0 {
		t.Fatal("rows not reset")
	}
	fold(s, 1, 5, 1)
	fold(s, 1, 3, 2) // live slot: folded in place
	ts := s.emit(nil, 0, 0)
	want := []Triple[int64]{{Row: 1, Col: 0, Val: 11}}
	if !reflect.DeepEqual(ts, want) {
		t.Fatalf("post-wrap emit = %v, want %v (stale generation leaked)", ts, want)
	}
}
