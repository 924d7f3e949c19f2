package align

import (
	"math/rand"
	"testing"

	"repro/internal/align/aligntest"
	"repro/internal/dna"
)

// checkAgainstRef runs both kernels on one pair and fails on any difference
// in score, extents or DP cells visited, or if extend leaves a row of sc
// holding anything but negInf.
func checkAgainstRef(t *testing.T, sc *Scratch, s, u []byte, p Params) {
	t.Helper()
	var cells, rcells int64
	p.Cells = &cells
	score, si, ti := extend(sc, s, u, p)
	p.Cells = &rcells
	rs, rsi, rti := extendRef(s, u, p)
	if score != rs || si != rsi || ti != rti {
		t.Fatalf("x=%d, s=%q t=%q: got (%d,%d,%d), reference (%d,%d,%d)",
			p.XDrop, s, u, score, si, ti, rs, rsi, rti)
	}
	if cells != rcells {
		t.Fatalf("x=%d, s=%q t=%q: %d cells, reference %d", p.XDrop, s, u, cells, rcells)
	}
	for r, row := range sc.rows {
		for i, v := range row {
			if v != negInf {
				t.Fatalf("x=%d, s=%q t=%q: row %d cell %d left at %d", p.XDrop, s, u, r, i-1, v)
			}
		}
	}
}

func TestExtendMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(20240614))
	// One Scratch across all pairs, so what a wider, longer previous
	// extension left behind is part of what is tested.
	sc := new(Scratch)
	trials := 0
	for _, xdrop := range []int32{7, 15, 40} {
		for _, rate := range []float64{0, 0.005, 0.03, 0.1, 0.2} {
			for _, related := range []bool{true, false} {
				for i := 0; i < 100; i++ {
					s, u := aligntest.Pair(rng, 500, rate, related)
					checkAgainstRef(t, sc, s, u, DefaultParams(xdrop))
					trials++
				}
			}
		}
	}
	if trials < 2000 {
		t.Fatalf("only %d trials", trials)
	}
}

// TestExtendMatchesRefOtherScores covers scorings other than the default,
// including a zero and a negative x-drop.
func TestExtendMatchesRefOtherScores(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := new(Scratch)
	for _, p := range []Params{
		{Match: 1, Mismatch: -1, Gap: -2, XDrop: 10},
		{Match: 2, Mismatch: -3, Gap: -2, XDrop: 20},
		{Match: 1, Mismatch: -4, Gap: -1, XDrop: 5},
		{Match: 1, Mismatch: -2, Gap: -2, XDrop: 0},
		{Match: 1, Mismatch: -2, Gap: -2, XDrop: -3},
	} {
		for i := 0; i < 200; i++ {
			s, u := aligntest.Pair(rng, 300, []float64{0, 0.02, 0.1, 0.3}[i%4], true)
			checkAgainstRef(t, sc, s, u, p)
		}
	}
}

func FuzzExtendMatchesRef(f *testing.F) {
	aligntest.AddFuzzSeeds(func(raw, edits []byte, drop uint8) { f.Add(raw, edits, drop) })
	f.Fuzz(func(t *testing.T, raw, edits []byte, xdrop uint8) {
		if len(raw) > 1000 {
			return
		}
		s, u := aligntest.FuzzPair(raw, edits)
		sc := new(Scratch)
		checkAgainstRef(t, sc, s, u, DefaultParams(int32(xdrop)))
		checkAgainstRef(t, sc, u, s, DefaultParams(int32(xdrop))) // warm rows, swapped roles
	})
}

var sinkScore int32

// TestSeedExtendZeroAllocs is the steady-state contract: after one warm-up
// call on the pair, XDropAligner.SeedExtend allocates nothing for forward
// and RC seeds.
func TestSeedExtendZeroAllocs(t *testing.T) {
	const k = 17
	u, v, pu, pv := aligntest.SeededOverlap(11, k)
	for _, tc := range []struct {
		name string
		v    []byte
		seed Seed
	}{
		{"forward", v, Seed{PU: pu, PV: pv}},
		{"rc", dna.RevComp(v), Seed{PU: pu, PV: int32(len(v)) - pv - k, RC: true}},
	} {
		a := NewXDrop(DefaultParams(15))
		want := a.SeedExtend(u, tc.v, k, tc.seed)
		if want.EU-want.BU < 1000 {
			t.Fatalf("%s: aligned only u[%d,%d): the pair does not exercise the kernel", tc.name, want.BU, want.EU)
		}
		if n := testing.AllocsPerRun(20, func() { sinkScore = a.SeedExtend(u, tc.v, k, tc.seed).Score }); n != 0 {
			t.Fatalf("%s: %v allocs per SeedExtend, want 0", tc.name, n)
		}
		if sinkScore != want.Score {
			t.Fatalf("%s: score changed across calls: %d then %d", tc.name, want.Score, sinkScore)
		}
		// The throwaway-Scratch entry points run the same kernel.
		if got := SeedExtend(u, tc.v, k, tc.seed, DefaultParams(15)); got != want {
			t.Fatalf("%s: SeedExtend %+v, XDropAligner %+v", tc.name, got, want)
		}
		if got := Best(u, tc.v, k, []Seed{tc.seed}, DefaultParams(15)); got != want {
			t.Fatalf("%s: Best %+v, XDropAligner %+v", tc.name, got, want)
		}
	}
}

func TestReverseIntoGrowsGeometrically(t *testing.T) {
	src := aligntest.RandSeq(rand.New(rand.NewSource(5)), 8192)
	var buf []byte
	grows := 0
	for n := 1; n <= len(src); n++ {
		before := cap(buf)
		buf = reverseInto(buf, src[:n])
		if cap(buf) != before {
			grows++
		}
		if buf[0] != src[n-1] || buf[n-1] != src[0] {
			t.Fatalf("length %d: not the reverse", n)
		}
	}
	if grows > 40 {
		t.Fatalf("%d re-allocations over lengths 1..%d, want O(log n)", grows, len(src))
	}
}
