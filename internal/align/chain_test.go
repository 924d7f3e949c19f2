package align

import (
	"math/rand"
	"testing"

	"repro/internal/align/aligntest"
)

// seedExtendOf reduces an Aligner's SeedExtend to aligntest's plain-value
// form.
func seedExtendOf(al Aligner) aligntest.SeedExtendFunc {
	return func(u, v []byte, k, pu, pv int32, rc bool) (score, bu, eu, bv, ev int32) {
		a := al.SeedExtend(u, v, k, Seed{PU: pu, PV: pv, RC: rc})
		return a.Score, a.BU, a.EU, a.BV, a.EV
	}
}

// chainScores are the score sets of TestExtendMatchesRefOtherScores that meet
// the lemma's precondition, plus the two defaults the pipeline runs.
var chainScores = []Params{
	DefaultParams(15),
	DefaultParams(7),
	{Match: 1, Mismatch: -1, Gap: -2, XDrop: 10},
	{Match: 2, Mismatch: -3, Gap: -2, XDrop: 20},
	{Match: 1, Mismatch: -4, Gap: -1, XDrop: 5},
	{Match: 1, Mismatch: -2, Gap: -2, XDrop: 2}, // XDrop = −Gap, the boundary
}

// TestChainedSeedIdentical is the chained-seed lemma on the x-drop DP: a
// shared k-mer and the same k-mer shifted δ ≤ k bases along its diagonal
// extend to the same alignment, for every δ, on both strands, across error
// rates and with flanks that may be empty (seeds at read boundaries).
func TestChainedSeedIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	trials := 0
	for _, p := range chainScores {
		if !p.chainExact() {
			t.Fatalf("%+v does not meet the precondition", p)
		}
		al := NewXDrop(p)
		aligntest.EachChained(rng, 60, func(c aligntest.ChainedCase, rate float64) {
			if same, a, b := c.Identical(seedExtendOf(al)); !same {
				t.Fatalf("%+v rate %v: %v vs %v on %v", p, rate, a, b, c)
			}
			trials++
		})
	}
	if trials < 2500 {
		t.Fatalf("only %d trials", trials)
	}
}

// TestChainSkipOffBelowPrecondition is the committed counterexample: with
// XDrop < −Gap both cells of antidiagonal 1 are pruned, the DP never reaches
// the match at (1,1), every extension is empty and the two chained seeds give
// different extents — so such an aligner reports ChainExact false and BestOf
// extends both seeds.
func TestChainSkipOffBelowPrecondition(t *testing.T) {
	p := Params{Match: 1, Mismatch: -2, Gap: -2, XDrop: 1}
	if p.chainExact() {
		t.Fatal("XDrop 1 < −Gap 2 must fail the precondition")
	}
	for _, q := range []Params{{Match: 1, Mismatch: -2, Gap: -2, XDrop: 0}, {Match: 1, Mismatch: -2, Gap: -2, XDrop: -3},
		{Match: 1, Mismatch: -2, Gap: 0, XDrop: 5}, {Match: 1, Mismatch: 2, Gap: -2, XDrop: 5}} {
		if q.chainExact() {
			t.Fatalf("%+v must fail the precondition", q)
		}
	}
	run := []byte("ACGTTGCAAC") // k = 8, δ = 2
	flank := []byte("GATTACAGATTACA")
	c := aligntest.NewChained(flank, flank, run, flank, flank, 8, 2, false)
	al := NewXDrop(p)
	same, a, b := c.Identical(seedExtendOf(al))
	if same {
		t.Fatalf("expected the lemma to fail at XDrop 1, both seeds gave %v", a)
	}
	if a != [5]int32{8, c.PU, c.PU + 8, c.PV, c.PV + 8} || b != [5]int32{8, c.PU2, c.PU2 + 8, c.PV2, c.PV2 + 8} {
		t.Fatalf("expected two bare seed windows, got %v and %v", a, b)
	}
	seeds := []Seed{{PU: c.PU, PV: c.PV}, {PU: c.PU2, PV: c.PV2}}
	if n := Extensions(al, c.K, seeds); n != 2 {
		t.Fatalf("Extensions = %d below the precondition, want 2", n)
	}
	counted := &countingAligner{Aligner: al}
	BestOf(counted, c.U, c.V, c.K, seeds)
	if counted.calls != 2 {
		t.Fatalf("BestOf extended %d seeds below the precondition, want 2", counted.calls)
	}
	// The same pair above the precondition: one extension, same answer as
	// extending both.
	ok := NewXDrop(DefaultParams(15))
	counted = &countingAligner{Aligner: ok}
	got := BestOf(counted, c.U, c.V, c.K, seeds)
	if counted.calls != 1 || Extensions(ok, c.K, seeds) != 1 {
		t.Fatalf("BestOf extended %d seeds of one chain, want 1", counted.calls)
	}
	if want := bestOfAll(ok, c.U, c.V, c.K, seeds); got != want {
		t.Fatalf("BestOf = %+v, exhaustive = %+v", got, want)
	}
}

// countingAligner counts SeedExtend calls.
type countingAligner struct {
	Aligner
	calls int
}

func (c *countingAligner) SeedExtend(u, v []byte, k int32, seed Seed) Result {
	c.calls++
	return c.Aligner.SeedExtend(u, v, k, seed)
}

// bestOfAll is BestOf before the chained-seed skip: every seed extended.
func bestOfAll(al Aligner, u, v []byte, k int32, seeds []Seed) Result {
	var best Result
	bestScore := negInf
	for _, s := range seeds {
		if a := al.SeedExtend(u, v, k, s); a.Score > bestScore {
			best, bestScore = a, a.Score
		}
	}
	return best
}

// TestBestOfExtendsUnchainedSeeds: a second seed more than k bases along, on
// another diagonal or on the other strand is not chained and is extended;
// only the δ ≤ k same-diagonal, same-strand one is skipped.
func TestBestOfExtendsUnchainedSeeds(t *testing.T) {
	const k = 10
	first := Seed{PU: 100, PV: 40}
	for _, tc := range []struct {
		name    string
		second  Seed
		chained bool
	}{
		{"δ=1", Seed{PU: 101, PV: 41}, true},
		{"δ=k", Seed{PU: 110, PV: 50}, true},
		{"δ=k+1", Seed{PU: 111, PV: 51}, false},
		{"δ=0 other PV", Seed{PU: 100, PV: 45}, false},
		{"other diagonal", Seed{PU: 103, PV: 44}, false},
		{"other strand", Seed{PU: 103, PV: 43, RC: true}, false},
		{"rc geometry on forward seeds", Seed{PU: 103, PV: 37}, false},
	} {
		if got := chained(first, tc.second, k); got != tc.chained {
			t.Errorf("%s: chained = %v, want %v", tc.name, got, tc.chained)
		}
	}
	rcFirst := Seed{PU: 100, PV: 40, RC: true}
	if !chained(rcFirst, Seed{PU: 104, PV: 36, RC: true}, k) {
		t.Error("RC seeds: ΔPU = −ΔPV = 4 must chain")
	}
	if chained(rcFirst, Seed{PU: 104, PV: 44, RC: true}, k) {
		t.Error("RC seeds: ΔPU = ΔPV is another diagonal")
	}
	// Three seeds, the third chained to the skipped second but more than k
	// from the first (the seed extended last): extended.
	seeds := []Seed{first, {PU: 108, PV: 48}, {PU: 116, PV: 56}}
	al := NewXDrop(DefaultParams(15))
	if n := Extensions(al, k, seeds); n != 2 {
		t.Fatalf("Extensions = %d, want 2", n)
	}
	rng := rand.New(rand.NewSource(5))
	u, v := aligntest.RandSeq(rng, 300), aligntest.RandSeq(rng, 300)
	counted := &countingAligner{Aligner: al}
	BestOf(counted, u, v, k, seeds)
	if counted.calls != 2 {
		t.Fatalf("BestOf made %d extensions, want 2", counted.calls)
	}
}

func FuzzChainedSeedIdentical(f *testing.F) {
	aligntest.AddFuzzSeeds(func(raw, edits []byte, drop uint8) {
		f.Add(raw, edits, drop, uint8(len(raw)), drop, false)
		f.Add(raw, edits, drop, drop, uint8(0), true)
	})
	f.Fuzz(func(t *testing.T, raw, edits []byte, xdrop, kb, db uint8, rc bool) {
		if len(raw) > 2000 {
			return
		}
		p := DefaultParams(int32(xdrop))
		if !p.chainExact() {
			return
		}
		c := aligntest.FuzzChained(raw, edits, kb, db, rc)
		if same, a, b := c.Identical(seedExtendOf(NewXDrop(p))); !same {
			t.Fatalf("x %d: %v vs %v on %v", xdrop, a, b, c)
		}
	})
}
