package align

import (
	"math/rand"
	"testing"

	"repro/internal/dna"
	"repro/internal/readsim"
)

func TestExtendExactMatch(t *testing.T) {
	p := DefaultParams(10)
	s := []byte("ACGTACGTAC")
	score, si, ti := extend(new(Scratch), s, s, p)
	if score != int32(len(s)) || si != int32(len(s)) || ti != int32(len(s)) {
		t.Fatalf("score=%d si=%d ti=%d", score, si, ti)
	}
}

func TestExtendStopsAtDivergence(t *testing.T) {
	p := DefaultParams(4)
	s := []byte("AAAAAAAAAA" + "CCCCCCCCCCCCCCCC")
	u := []byte("AAAAAAAAAA" + "GGGGGGGGGGGGGGGG")
	score, si, ti := extend(new(Scratch), s, u, p)
	if score != 10 || si != 10 || ti != 10 {
		t.Fatalf("divergence: score=%d si=%d ti=%d, want 10,10,10", score, si, ti)
	}
}

func TestExtendCrossesSubstitution(t *testing.T) {
	p := DefaultParams(10)
	a := []byte("ACGTACGTAAACGTACGTAC")
	b := append([]byte(nil), a...)
	b[10] = 'T' // one substitution in the middle (A->T)
	score, si, ti := extend(new(Scratch), a, b, p)
	if si != int32(len(a)) || ti != int32(len(b)) {
		t.Fatalf("did not cross substitution: si=%d ti=%d", si, ti)
	}
	// 19 matches + 1 mismatch (-2) = 17.
	if score != int32(len(a))-3 {
		t.Fatalf("score=%d want %d", score, len(a)-3)
	}
}

func TestExtendCrossesIndel(t *testing.T) {
	p := DefaultParams(12)
	a := []byte("ACGTACGTACGTACGTACGT")
	// b = a with one base deleted at position 9.
	b := append(append([]byte(nil), a[:9]...), a[10:]...)
	score, si, ti := extend(new(Scratch), a, b, p)
	if si != int32(len(a)) || ti != int32(len(b)) {
		t.Fatalf("did not cross deletion: si=%d ti=%d (lens %d %d)", si, ti, len(a), len(b))
	}
	// 19 matches + 1 gap (-2) = 17.
	if score != 17 {
		t.Fatalf("score=%d want 17", score)
	}
}

func TestExtendEmptyInputs(t *testing.T) {
	p := DefaultParams(5)
	if s, i, j := extend(new(Scratch), nil, []byte("ACGT"), p); s != 0 || i != 0 || j != 0 {
		t.Fatal("empty s must be zero extension")
	}
	if s, i, j := extend(new(Scratch), []byte("ACGT"), nil, p); s != 0 || i != 0 || j != 0 {
		t.Fatal("empty t must be zero extension")
	}
}

func TestSeedExtendPerfectOverlapForward(t *testing.T) {
	// u suffix overlaps v prefix by 30 bases.
	g := readsim.Genome(readsim.GenomeConfig{Length: 200, Seed: 1})
	u, v := g[:120], g[90:]
	k := int32(15)
	// Seed: k-mer at u position 95 == v position 5.
	a := SeedExtend(u, v, k, Seed{PU: 95, PV: 5, RC: false}, DefaultParams(15))
	if a.BU != 90 || a.EU != 120 || a.BV != 0 || a.EV != 30 {
		t.Fatalf("coords: u[%d,%d) v[%d,%d), want u[90,120) v[0,30)", a.BU, a.EU, a.BV, a.EV)
	}
	if a.Score != 30 {
		t.Fatalf("score=%d want 30", a.Score)
	}
	if a.RC {
		t.Fatal("RC must be false")
	}
}

func TestSeedExtendPerfectOverlapRC(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 200, Seed: 2})
	u := g[:120]
	v := dna.RevComp(g[90:]) // v is the reverse complement of the genome tail
	k := int32(15)
	// The shared canonical k-mer at genome position 95: on u it starts at 95;
	// on v (forward coords of the stored read) it starts at LV-(95-90)-k =
	// len(v) - 5 - 15.
	pv := int32(len(v)) - 5 - k
	a := SeedExtend(u, v, k, Seed{PU: 95, PV: pv, RC: true}, DefaultParams(15))
	if a.BU != 90 || a.EU != 120 {
		t.Fatalf("u coords [%d,%d), want [90,120)", a.BU, a.EU)
	}
	// On v forward coords the overlap is the last 30 bases.
	if a.BV != int32(len(v))-30 || a.EV != int32(len(v)) {
		t.Fatalf("v coords [%d,%d), want [%d,%d)", a.BV, a.EV, len(v)-30, len(v))
	}
	if !a.RC {
		t.Fatal("RC must be true")
	}
}

func TestSeedExtendWithErrors(t *testing.T) {
	// Two erroneous reads drawn from overlapping windows must still align
	// across most of the true overlap at a 3% error rate.
	g := readsim.Genome(readsim.GenomeConfig{Length: 3000, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	_ = rng
	reads := readsim.Simulate(g, readsim.ReadConfig{Depth: 0.1, MeanLen: 1500, ErrorRate: 0.03, Seed: 5, ForwardOnly: true})
	if len(reads) < 1 {
		t.Skip("no reads")
	}
	u := g[:2000]
	v := reads[0].Seq
	// Find a shared exact 17-mer as seed.
	k := 17
	idx := map[string]int{}
	for i := 0; i+k <= len(u); i++ {
		idx[string(u[i:i+k])] = i
	}
	seedFound := false
	var seed Seed
	for j := 0; j+k <= len(v); j++ {
		if i, ok := idx[string(v[j:j+k])]; ok {
			seed = Seed{PU: int32(i), PV: int32(j)}
			seedFound = true
			break
		}
	}
	if !seedFound {
		t.Skip("no shared seed at this error rate")
	}
	a := SeedExtend(u, v, int32(k), seed, DefaultParams(25))
	alnLenV := a.EV - a.BV
	trueOverlap := int32(min(reads[0].End, 2000) - reads[0].Pos)
	if trueOverlap <= 0 {
		t.Skip("read does not overlap the window")
	}
	if alnLenV < trueOverlap*7/10 {
		t.Fatalf("aligned %d of %d true overlap", alnLenV, trueOverlap)
	}
}

func TestBestPicksHigherScore(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 300, Seed: 6})
	u, v := g[:200], g[150:]
	k := int32(15)
	good := Seed{PU: 160, PV: 10}
	// A bogus seed pointing at unrelated regions extends poorly.
	bogus := Seed{PU: 10, PV: 60}
	a := Best(u, v, k, []Seed{bogus, good}, DefaultParams(15))
	if a.EU-a.BU < 40 {
		t.Fatalf("Best picked a poor alignment: u span %d", a.EU-a.BU)
	}
}

func TestXDropLimitsWastedWork(t *testing.T) {
	// Unrelated sequences must terminate with a short extension, not scan
	// the whole quadratic table.
	a := readsim.Genome(readsim.GenomeConfig{Length: 5000, Seed: 7})
	b := readsim.Genome(readsim.GenomeConfig{Length: 5000, Seed: 8})
	score, si, ti := extend(new(Scratch), a, b, DefaultParams(8))
	if si > 200 || ti > 200 {
		t.Fatalf("x-drop failed to stop: si=%d ti=%d score=%d", si, ti, score)
	}
}
