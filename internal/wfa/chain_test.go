package wfa

import (
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/align/aligntest"
)

// seedExtendOf reduces the aligner's SeedExtend to aligntest's plain-value
// form.
func seedExtendOf(a *Aligner) aligntest.SeedExtendFunc {
	return func(u, v []byte, k, pu, pv int32, rc bool) (score, bu, eu, bv, ev int32) {
		r := a.SeedExtend(u, v, k, align.Seed{PU: pu, PV: pv, RC: rc})
		return r.Score, r.BU, r.EU, r.BV, r.EV
	}
}

// chainScores are the two defaults the pipeline runs and the score sets of
// TestExtendMatchesRefOtherPenalties with Drop ≥ 0 (plus Drop 1), in the
// classic units DualParams converts from.
var chainScores = []align.Params{
	align.DefaultParams(15),
	align.DefaultParams(7),
	{Match: 1, Mismatch: -1, Gap: -2, XDrop: 10},
	{Match: 2, Mismatch: -3, Gap: -2, XDrop: 20},
	{Match: 1, Mismatch: -4, Gap: -1, XDrop: 5},
	{Match: 1, Mismatch: -2, Gap: -2, XDrop: 1},
	{Match: 1, Mismatch: -2, Gap: -2, XDrop: 0},
}

// TestChainedSeedIdentical is the chained-seed lemma on the wavefront: a
// shared k-mer and the same k-mer shifted δ ≤ k bases along its diagonal
// extend to the same alignment — for chainScores (the wavefront has no
// XDrop ≥ −Gap condition: Drop 0 holds too), every δ, both strands, flanks
// that may be empty.
func TestChainedSeedIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	trials := 0
	for _, ap := range chainScores {
		a := New(DualParams(ap))
		if !a.ChainExact() {
			t.Fatalf("%+v does not meet the precondition", ap)
		}
		aligntest.EachChained(rng, 60, func(c aligntest.ChainedCase, rate float64) {
			if same, x, y := c.Identical(seedExtendOf(a)); !same {
				t.Fatalf("%+v rate %v: %v vs %v on %v", ap, rate, x, y, c)
			}
			trials++
		})
	}
	if trials < 3000 {
		t.Fatalf("only %d trials", trials)
	}
}

// TestChainSkipPrecondition: a negative Drop or a gap no dearer than a match
// switches the skip off, and BestOf then extends both seeds of a chain.
func TestChainSkipPrecondition(t *testing.T) {
	for _, p := range []Params{
		DualParams(align.Params{Match: 1, Mismatch: -2, Gap: -2, XDrop: -3}),
		{Match: 3, Mismatch: 4, GapExt: 3, Drop: 10},
		{Match: 3, Mismatch: 4, GapExt: 1, Drop: 10},
	} {
		if New(p).ChainExact() {
			t.Fatalf("%+v must fail the precondition", p)
		}
	}
	// A read that ends inside the run, with a gap as cheap as a match: the
	// cell one gap past the end ties the run's last cell and wins the
	// furthest-cell tie-break, so the first seed's extents overshoot.
	run := []byte("ACGTTGCAAC") // k = 8, δ = 2
	c := aligntest.NewChained(nil, nil, run, nil, []byte("TTTT"), 8, 2, false)
	tie := New(Params{Match: 3, Mismatch: 4, GapExt: 3, Drop: 10})
	if same, x, y := c.Identical(seedExtendOf(tie)); same {
		t.Fatalf("expected the lemma to fail at GapExt = Match, both seeds gave %v", x)
	} else if x[0] != y[0] {
		t.Fatalf("scores must still agree: %v vs %v", x, y)
	}
	seeds := []align.Seed{{PU: c.PU, PV: c.PV}, {PU: c.PU2, PV: c.PV2}}
	if n := align.Extensions(tie, c.K, seeds); n != 2 {
		t.Fatalf("Extensions = %d below the precondition, want 2", n)
	}
	a := New(DefaultParams(15))
	if n := align.Extensions(a, c.K, seeds); n != 1 {
		t.Fatalf("Extensions = %d for one chain, want 1", n)
	}
	w0 := a.Work()
	one := a.SeedExtend(c.U, c.V, c.K, seeds[0])
	w1 := a.Work()
	best := align.BestOf(a, c.U, c.V, c.K, seeds)
	if w2 := a.Work(); w2-w1 != w1-w0 || best != one {
		t.Fatalf("BestOf over one chain did %d work for %+v, one extension %d for %+v", w2-w1, best, w1-w0, one)
	}
}

func FuzzChainedSeedIdentical(f *testing.F) {
	aligntest.AddFuzzSeeds(func(raw, edits []byte, drop uint8) {
		f.Add(raw, edits, drop, uint8(len(raw)), drop, false)
		f.Add(raw, edits, drop, drop, uint8(0), true)
	})
	f.Fuzz(func(t *testing.T, raw, edits []byte, drop, kb, db uint8, rc bool) {
		if len(raw) > 2000 {
			return
		}
		c := aligntest.FuzzChained(raw, edits, kb, db, rc)
		if same, x, y := c.Identical(seedExtendOf(New(DefaultParams(int32(drop))))); !same {
			t.Fatalf("drop %d: %v vs %v on %v", drop, x, y, c)
		}
	})
}
