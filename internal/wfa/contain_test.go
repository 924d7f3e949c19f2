package wfa

import (
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/align/aligntest"
	"repro/internal/bidir"
)

// boundBackends are the two alignment backends scoring in p's units: the
// x-drop DP and the wavefront on p's dual, whose Score converts back
// exactly. align.Params.MayContain must hold for both.
func boundBackends(p align.Params) []align.Aligner {
	return []align.Aligner{align.NewXDrop(p), New(DualParams(p))}
}

// checkContainmentBound aligns the case's pair through align.BestOf over
// both of its seeds on al and fails when the alignment passes the score gate
// at frac and classifies (either id order, MaxOverhang overhang) as a
// containment p.MayContain ruled out. It returns how many of the two kinds
// were ruled out.
func checkContainmentBound(t *testing.T, al align.Aligner, p align.Params, c aligntest.ChainedCase, frac float64, overhang int32) (ruledOut int) {
	t.Helper()
	seeds := []align.Seed{{PU: c.PU, PV: c.PV, RC: c.RC}, {PU: c.PU2, PV: c.PV2, RC: c.RC}}
	a := align.BestOf(al, c.U, c.V, c.K, seeds)
	alnLen := min(a.EU-a.BU, a.EV-a.BV)
	passes := float64(a.Score) >= frac*float64(alnLen)
	lu, lv := int32(len(c.U)), int32(len(c.V))
	for _, kind := range []bidir.Kind{bidir.ContainedU, bidir.ContainsV} {
		if p.MayContain(kind, lu, lv, c.K, seeds, frac) {
			continue
		}
		ruledOut++
		for _, ids := range [][2]int32{{0, 1}, {1, 0}} {
			a.U, a.V = ids[0], ids[1]
			if _, got := bidir.Classify(a, bidir.Params{MaxOverhang: overhang}); passes && got == kind {
				t.Fatalf("%T %+v frac %v overhang %d: kind %d ruled out, got %+v on %v", al, p, frac, overhang, kind, a, c)
			}
		}
	}
	return ruledOut
}

// TestMayContainHoldsOnRelatedPairs sweeps the bound over related read pairs
// (aligntest.EachChained, one read trimmed so it may nest in the other) for
// chainScores on both backends and a range of score fractions: no alignment
// the predicate rules out passes the gate as that containment.
func TestMayContainHoldsOnRelatedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ruledOut, trials := 0, 0
	for _, p := range chainScores {
		for _, al := range boundBackends(p) {
			aligntest.EachChained(rng, 25, func(c aligntest.ChainedCase, rate float64) {
				c = c.Trim(rng.Intn(2) == 0, rng.Intn(200), rng.Intn(200))
				frac := float64(rng.Intn(120)) / 100
				ruledOut += checkContainmentBound(t, al, p, c, frac, int32(rng.Intn(60)))
				trials++
			})
		}
	}
	if ruledOut < trials/4 {
		t.Fatalf("the bound ruled out only %d kinds in %d trials", ruledOut, trials)
	}
}

// TestMayContainTight: the bound is tight on real alignments, on both
// backends. v is u with g single-base insertions spread along it, and the
// two share a k-mer at their start, so the alignment of all of both has
// exactly g gaps and score LU − 2g under +1/−2/−2, and classifies as v inside
// u (equal overhangs, U < V). At frac 0.5 the gate allows ⌊LU/4⌋ gaps: with
// g = LU/4 the alignment passes as that containment and the predicate keeps
// it; with one insertion more the predicate rules it out, and the alignment
// fails the gate.
func TestMayContainTight(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const k = 17
	p := align.DefaultParams(15)
	for _, rc := range []bool{false, true} {
		for _, lu := range []int{400, 800, 1600} {
			for _, g := range []int{lu / 4, lu/4 + 1} {
				body, ins := aligntest.Inserted(rng, lu-k-1, g)
				c := aligntest.NewChained(nil, nil, aligntest.RandSeq(rng, k+1), body, ins, k, 1, rc)
				seeds := []align.Seed{{PU: c.PU, PV: c.PV, RC: rc}, {PU: c.PU2, PV: c.PV2, RC: rc}}
				may := p.MayContain(bidir.ContainsV, int32(len(c.U)), int32(len(c.V)), k, seeds, 0.5)
				for _, al := range boundBackends(p) {
					a := align.BestOf(al, c.U, c.V, k, seeds)
					a.U, a.V = 0, 1
					_, kind := bidir.Classify(a, bidir.Params{})
					passes := float64(a.Score) >= 0.5*float64(min(a.EU-a.BU, a.EV-a.BV))
					if atCap := g == lu/4; may != atCap || passes != atCap || kind != bidir.ContainsV || a.Score != int32(lu-2*g) {
						t.Fatalf("%T rc %v LU %d g %d: MayContain %v, passes %v, kind %d, %+v", al, rc, lu, g, may, passes, kind, a)
					}
					checkContainmentBound(t, al, p, c, 0.5, 0)
				}
			}
		}
	}
}

// FuzzContainmentBound fuzzes the bound on both backends: a related pair
// from aligntest.FuzzChained (indels on both reads, a shared seed on either
// strand), one read trimmed, chainScores, and a fuzzed frac and overhang.
func FuzzContainmentBound(f *testing.F) {
	aligntest.AddFuzzSeeds(func(raw, edits []byte, drop uint8) {
		f.Add(raw, edits, drop, uint8(len(raw)), drop, uint8(3), uint8(64), false)
		f.Add(raw, edits, drop, drop, uint8(0), uint8(200), uint8(100), true)
	})
	f.Fuzz(func(t *testing.T, raw, edits []byte, kb, db, lo, hi, fb uint8, rc bool) {
		if len(raw) > 2000 {
			return
		}
		c := aligntest.FuzzChained(raw, edits, kb, db, rc).Trim(lo&1 == 0, int(lo>>1), int(hi))
		for _, p := range chainScores {
			for _, al := range boundBackends(p) {
				checkContainmentBound(t, al, p, c, float64(fb)/128, int32(db))
			}
		}
	})
}
