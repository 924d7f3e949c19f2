package align

import (
	"math"
	"testing"

	"repro/internal/bidir"
)

// TestMayContainBoundary pins the bound at its edge with +1/−2/−2 scoring
// and frac 0.5 on reads of 1000 and 1100 bases: at most
// ⌊(1 − 0.5)·1000/2⌋ = 250 gaps pass the gate. A seed that forces exactly
// 250 gaps may anchor the containment, one that forces 251 may not — for
// both kinds, both sides of each kind's zero-gap diagonal range, and forward
// and reverse-complement seeds of the same diagonal.
func TestMayContainBoundary(t *testing.T) {
	const lu, lv, k = 1000, 1100, 17
	p := DefaultParams(15)
	// seedAt places a seed on diagonal d = PU − PV′ with PV′ = 400.
	seedAt := func(d int32, rc bool) Seed {
		if rc {
			return Seed{PU: 400 + d, PV: lv - 400 - k, RC: true}
		}
		return Seed{PU: 400 + d, PV: 400}
	}
	for _, tc := range []struct {
		kind bidir.Kind
		d    int32 // a diagonal needing exactly the 250-gap cap
		step int32 // one diagonal further from the zero-gap range
	}{
		// ContainedU: max(0, d) + max(0, −100 − d) gaps.
		{bidir.ContainedU, 250, 1},
		{bidir.ContainedU, -350, -1},
		// ContainsV: max(0, −d) + max(0, d + 100) gaps.
		{bidir.ContainsV, 150, 1},
		{bidir.ContainsV, -250, -1},
	} {
		for _, rc := range []bool{false, true} {
			at, over := seedAt(tc.d, rc), seedAt(tc.d+tc.step, rc)
			if !p.MayContain(tc.kind, lu, lv, k, []Seed{at}, 0.5) {
				t.Errorf("kind %d rc %v d %d: a seed needing exactly the cap was ruled out", tc.kind, rc, tc.d)
			}
			if p.MayContain(tc.kind, lu, lv, k, []Seed{over}, 0.5) {
				t.Errorf("kind %d rc %v d %d: a seed needing the cap + 1 was not ruled out", tc.kind, rc, tc.d+tc.step)
			}
			if !p.MayContain(tc.kind, lu, lv, k, []Seed{over, at}, 0.5) {
				t.Errorf("kind %d rc %v: one seed within the cap must keep the pair", tc.kind, rc)
			}
		}
	}
	// frac 0.3: the cap (1 − 0.3)·1000/2 = 350 is an integer the float
	// arithmetic lands a hair below; it must stay 350.
	if !p.MayContain(bidir.ContainedU, lu, lv, k, []Seed{seedAt(350, false)}, 0.3) ||
		p.MayContain(bidir.ContainedU, lu, lv, k, []Seed{seedAt(351, false)}, 0.3) {
		t.Error("frac 0.3: want a cap of exactly 350 gaps")
	}
}

// TestMayContainLengthRule: every seed's bound is at least |LU − LV|, so a
// read 300 bases longer than the 1000-base one it would have to fit in is
// ruled out on every diagonal when only 250 gaps pass (ROADMAP's length-only
// rule), and the shorter read inside the longer is not.
func TestMayContainLengthRule(t *testing.T) {
	p := DefaultParams(15)
	for d := int32(-1300); d <= 1000; d++ {
		s := []Seed{{PU: max(d, 0), PV: max(-d, 0)}}
		if p.MayContain(bidir.ContainsV, 1000, 1300, 17, s, 0.5) {
			t.Fatalf("d %d: a 1300-base v cannot fit inside a 1000-base u with ≤ 250 gaps", d)
		}
		if d >= -300 && d <= 0 && !p.MayContain(bidir.ContainedU, 1000, 1300, 17, s, 0.5) {
			t.Fatalf("d %d: u sits inside v on this diagonal with no gap", d)
		}
	}
}

// TestMayContainOutsideAssumptions: where the proof does not hold the
// predicate never rules a pair out — a positive mismatch score, a match
// score at or below frac, a non-negative gap score, NaN frac, or a kind
// that is not a containment — even for a seed a thousand gaps off.
func TestMayContainOutsideAssumptions(t *testing.T) {
	far := []Seed{{PU: 1000, PV: 0}, {PU: 1000, PV: 1000 - 17, RC: true}}
	for _, tc := range []struct {
		name string
		p    Params
		frac float64
		kind bidir.Kind
	}{
		{"mismatch > 0", Params{Match: 2, Mismatch: 1, Gap: -2, XDrop: 15}, 0.5, bidir.ContainedU},
		{"match = frac", DefaultParams(15), 1, bidir.ContainedU},
		{"match < frac", DefaultParams(15), 1.5, bidir.ContainsV},
		{"match ≤ 0", Params{Match: 0, Mismatch: -2, Gap: -2, XDrop: 15}, -1, bidir.ContainedU},
		{"gap = 0", Params{Match: 1, Mismatch: -2, Gap: 0, XDrop: 15}, 0.5, bidir.ContainsV},
		{"NaN frac", DefaultParams(15), math.NaN(), bidir.ContainedU},
		{"dovetail", DefaultParams(15), 0.5, bidir.Dovetail},
		{"internal", DefaultParams(15), 0.5, bidir.Internal},
	} {
		for _, s := range far {
			if !tc.p.MayContain(tc.kind, 1100, 1000, 17, []Seed{s}, tc.frac) {
				t.Errorf("%s: seed %+v was ruled out", tc.name, s)
			}
		}
	}
	// Inside the assumptions the same seeds are ruled out.
	if DefaultParams(15).MayContain(bidir.ContainedU, 1100, 1000, 17, far, 0.5) {
		t.Error("+1/−2/−2 at frac 0.5: a seed 1000 gaps off must be ruled out")
	}
}
