package wfa

import (
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/align/aligntest"
	"repro/internal/dna"
)

// checkAgainstRef runs both kernels on one pair and fails on any difference
// in score, extents or work: Extend must count exactly the reference's work
// minus its I/D share.
func checkAgainstRef(t *testing.T, a *Aligner, s, u []byte) {
	t.Helper()
	before := a.Work()
	score, si, ti := a.Extend(s, u)
	cells := a.Work() - before
	rs, rsi, rti, rcells, idCells := extendRef(a.p, s, u)
	if score != rs || si != rsi || ti != rti {
		t.Fatalf("drop %d, s=%q t=%q: got (%d,%d,%d), reference (%d,%d,%d)",
			a.p.Drop, s, u, score, si, ti, rs, rsi, rti)
	}
	if cells != rcells-idCells {
		t.Fatalf("drop %d, s=%q t=%q: work %d, reference %d − I/D %d = %d",
			a.p.Drop, s, u, cells, rcells, idCells, rcells-idCells)
	}
}

func TestExtendMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(20240614))
	trials := 0
	for _, drop := range []int32{7, 15, 40} {
		// One aligner per drop across all pairs, so stale ring contents from
		// a wider, longer previous extension are part of what is tested.
		a := New(DefaultParams(drop))
		for _, rate := range []float64{0, 0.005, 0.03, 0.1, 0.2} {
			for _, related := range []bool{true, false} {
				for i := 0; i < 100; i++ {
					s, u := aligntest.Pair(rng, 700, rate, related)
					checkAgainstRef(t, a, s, u)
					trials++
				}
			}
		}
	}
	if trials < 2000 {
		t.Fatalf("only %d trials", trials)
	}
}

// TestExtendMatchesRefOtherPenalties covers scorings other than the default
// dual, where Mismatch < GapExt flips which level is the ring's oldest, and a
// zero and a negative drop.
func TestExtendMatchesRefOtherPenalties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ap := range []align.Params{
		{Match: 1, Mismatch: -1, Gap: -2, XDrop: 10},
		{Match: 2, Mismatch: -3, Gap: -2, XDrop: 20},
		{Match: 1, Mismatch: -4, Gap: -1, XDrop: 5},
		{Match: 1, Mismatch: -2, Gap: -2, XDrop: 0},
		{Match: 1, Mismatch: -2, Gap: -2, XDrop: -3},
	} {
		a := New(DualParams(ap))
		for i := 0; i < 200; i++ {
			s, u := aligntest.Pair(rng, 300, []float64{0, 0.02, 0.1, 0.3}[i%4], true)
			checkAgainstRef(t, a, s, u)
		}
	}
}

// TestLCPMatchesByteLoop checks the word-parallel prefix against the plain
// loop for every length 0..40 and every first-mismatch position, which
// covers the 8-byte word boundaries, the byte tail and unequal lengths.
func TestLCPMatchesByteLoop(t *testing.T) {
	byteLoop := func(a, b []byte) int32 {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		return int32(i)
	}
	base := aligntest.RandSeq(rand.New(rand.NewSource(3)), 48)
	for n := 0; n <= 40; n++ {
		for mis := 0; mis <= n; mis++ { // mis == n: no mismatch
			a := append([]byte(nil), base[:n]...)
			b := append([]byte(nil), base[:n]...)
			if mis < n {
				b[mis] ^= 0x20
			}
			for _, extra := range []int{0, 1, 9} {
				bb := append(b[:n:n], base[:extra]...)
				if got, want := lcp(a, bb), byteLoop(a, bb); got != want || want != int32(mis) {
					t.Fatalf("len %d+%d, first mismatch %d: lcp = %d, byte loop %d", n, extra, mis, got, want)
				}
				if got := lcp(bb, a); got != int32(mis) {
					t.Fatalf("len %d+%d swapped, first mismatch %d: lcp = %d", n, extra, mis, got)
				}
			}
		}
	}
}

func FuzzExtendMatchesRef(f *testing.F) {
	aligntest.AddFuzzSeeds(func(raw, edits []byte, drop uint8) { f.Add(raw, edits, drop) })
	f.Fuzz(func(t *testing.T, raw, edits []byte, drop uint8) {
		if len(raw) > 2000 {
			return
		}
		s, u := aligntest.FuzzPair(raw, edits)
		a := New(DefaultParams(int32(drop)))
		checkAgainstRef(t, a, s, u)
		checkAgainstRef(t, a, u, s) // warm ring, swapped roles
	})
}

var sinkScore int32

// TestSeedExtendZeroAllocs is the steady-state contract: after one warm-up
// call on the pair, SeedExtend allocates nothing for forward and RC seeds.
func TestSeedExtendZeroAllocs(t *testing.T) {
	const k = 17
	u, v, pu, pv := aligntest.SeededOverlap(11, k)
	for _, tc := range []struct {
		name string
		v    []byte
		seed align.Seed
	}{
		{"forward", v, align.Seed{PU: pu, PV: pv}},
		{"rc", dna.RevComp(v), align.Seed{PU: pu, PV: int32(len(v)) - pv - k, RC: true}},
	} {
		a := New(DefaultParams(15))
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
	}
}
