package overlap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/align"
	"repro/internal/kmer"
	"repro/internal/spmat"
)

// The value-semantics seed arithmetic the packed accumulator replaced, kept
// as the test reference: refSeeds is the layout C's values had, packSeed
// builds a key field by field (seedKey computes the same word from two packed
// occurrences), seedLess orders seeds, refAddSeed inserts one keeping the two
// smallest distinct, refMerge was the semiring Add, and viaUnpack reads a
// packed pair through the aligner's unpack into the reference layout.

type refSeeds struct {
	N int32
	S [2]align.Seed
}

func packSeed(pu, pv int32, rc bool) uint64 {
	k := uint64(pu)<<33 | uint64(pv)<<1
	if rc {
		k |= 1
	}
	return k
}

func seedLess(a, b align.Seed) bool {
	if a.PU != b.PU {
		return a.PU < b.PU
	}
	if a.PV != b.PV {
		return a.PV < b.PV
	}
	return !a.RC && b.RC
}

func refAddSeed(c refSeeds, s align.Seed) refSeeds {
	for i := int32(0); i < c.N; i++ {
		if c.S[i] == s {
			return c
		}
	}
	switch {
	case c.N == 0:
		c.S[0] = s
		c.N = 1
	case c.N == 1:
		if seedLess(s, c.S[0]) {
			c.S[0], c.S[1] = s, c.S[0]
		} else {
			c.S[1] = s
		}
		c.N = 2
	default:
		if seedLess(s, c.S[0]) {
			c.S[1] = c.S[0]
			c.S[0] = s
		} else if seedLess(s, c.S[1]) {
			c.S[1] = s
		}
	}
	return c
}

func refMerge(c, d refSeeds) refSeeds {
	for i := int32(0); i < d.N; i++ {
		c = refAddSeed(c, d.S[i])
	}
	return c
}

func viaUnpack(c Seeds) refSeeds {
	var buf [2]align.Seed
	s := c.unpack(&buf)
	r := refSeeds{N: int32(len(s))}
	copy(r.S[:], s)
	return r
}

// boundary holds the position values where packing could go wrong: the field
// edges of the 31-bit PU/PV lanes.
var boundary = []int32{0, 1, 2, math.MaxInt32 - 1, math.MaxInt32}

// randSeed draws a seed, half the time from the boundary values.
func randSeed(rng *rand.Rand) align.Seed {
	pos := func() int32 {
		if rng.Intn(2) == 0 {
			return boundary[rng.Intn(len(boundary))]
		}
		return int32(rng.Intn(50))
	}
	return align.Seed{PU: pos(), PV: pos(), RC: rng.Intn(2) == 1}
}

// accumulate folds seeds through the production semiring exactly as the
// multiply does — the one cell of a 1×n by n×1 product, seed i the product
// of inner index i, so the fresh slot takes the first and the live slot the
// rest in order — and, beside it, through the value-semantics reference.
func accumulate(seeds []align.Seed) (Seeds, refSeeds) {
	n := int32(len(seeds))
	a := spmat.COO[kmer.Occur]{NR: 1, NC: n}
	b := spmat.COO[kmer.Occur]{NR: n, NC: 1}
	var ref refSeeds
	for i, s := range seeds {
		// Occurrences whose product is s: positions carry over, RC is the XOR.
		a.Ts = append(a.Ts, spmat.Triple[kmer.Occur]{Row: 0, Col: int32(i), Val: kmer.MakeOccur(s.PU, s.RC)})
		b.Ts = append(b.Ts, spmat.Triple[kmer.Occur]{Row: int32(i), Col: 0, Val: kmer.MakeOccur(s.PV, false)})
		ref = refAddSeed(ref, s)
	}
	return spmat.Multiply(a, b, seedSemiring).Ts[0].Val, ref
}

// randAcc builds a random live accumulator (1–4 insertions).
func randAcc(rng *rand.Rand) Seeds {
	seeds := make([]align.Seed, 1+rng.Intn(4))
	for i := range seeds {
		seeds[i] = randSeed(rng)
	}
	acc, _ := accumulate(seeds)
	return acc
}

// TestPackedOrderMatchesSeedLess: integer order of the packed keys is exactly
// seedLess, the sentinel is above every key, and unpack inverts pack — over
// every combination of the boundary values and both strands.
func TestPackedOrderMatchesSeedLess(t *testing.T) {
	var all []align.Seed
	for _, pu := range boundary {
		for _, pv := range boundary {
			for _, rc := range []bool{false, true} {
				all = append(all, align.Seed{PU: pu, PV: pv, RC: rc})
			}
		}
	}
	for _, a := range all {
		ka := packSeed(a.PU, a.PV, a.RC)
		if ka >= noSeed {
			t.Fatalf("key of %+v collides with the empty sentinel", a)
		}
		if got := unpackSeed(ka); got != a {
			t.Fatalf("round trip %+v -> %#x -> %+v", a, ka, got)
		}
		// Every strand pair whose XOR is a.RC yields the same key from the
		// packed occurrences.
		for _, rcV := range []bool{false, true} {
			if got := seedKey(kmer.MakeOccur(a.PU, a.RC != rcV), kmer.MakeOccur(a.PV, rcV)); got != ka {
				t.Fatalf("seedKey of %+v (v strand rc=%v) = %#x, packSeed gives %#x", a, rcV, got, ka)
			}
		}
		for _, b := range all {
			kb := packSeed(b.PU, b.PV, b.RC)
			if (ka < kb) != seedLess(a, b) || (ka == kb) != (a == b) {
				t.Fatalf("order of %+v (%#x) vs %+v (%#x) disagrees with seedLess", a, ka, b, kb)
			}
		}
	}
}

// TestPackedAccumulateMatchesReference: the in-place packed fold and the
// value-semantics addSeed produce the same seeds, read through unpack, for any
// insertion sequence, and the packed Add equals the reference merge.
func TestPackedAccumulateMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]align.Seed, 1+rng.Intn(8))
		for i := range xs {
			xs[i] = randSeed(rng)
		}
		acc, ref := accumulate(xs)
		if viaUnpack(acc) != ref {
			return false
		}
		if len(xs) == 1 {
			return true
		}
		cut := 1 + rng.Intn(len(xs)-1)
		accL, refL := accumulate(xs[:cut])
		accR, refR := accumulate(xs[cut:])
		sum := seedSemiring.Add(accL, accR)
		return sum == acc && viaUnpack(sum) == refMerge(refL, refR)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedsMergeCommutative: SUMMA accumulates partial products in a stage
// order that depends on the grid, so the semiring Add must be commutative.
func TestSeedsMergeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randAcc(rng), randAcc(rng)
		return seedSemiring.Add(a, b) == seedSemiring.Add(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedsMergeAssociative: likewise for associativity.
func TestSeedsMergeAssociative(t *testing.T) {
	add := seedSemiring.Add
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randAcc(rng), randAcc(rng), randAcc(rng)
		return add(add(a, b), c) == add(a, add(b, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedsMergeIdempotent: merging a set with itself changes nothing.
func TestSeedsMergeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randAcc(rng)
		return seedSemiring.Add(a, a) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedsKeepSmallest: the accumulator holds the two lexicographically
// smallest distinct seeds ever inserted.
func TestSeedsKeepSmallest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		all := make([]align.Seed, rng.Intn(8)+1)
		for k := range all {
			all[k] = randSeed(rng)
		}
		acc, _ := accumulate(all)
		s := viaUnpack(acc)
		// Reference: sort distinct seeds, take two smallest.
		distinct := map[align.Seed]bool{}
		for _, sd := range all {
			distinct[sd] = true
		}
		var best []align.Seed
		for sd := range distinct {
			best = append(best, sd)
		}
		for i := 0; i < len(best); i++ {
			for j := i + 1; j < len(best); j++ {
				if seedLess(best[j], best[i]) {
					best[i], best[j] = best[j], best[i]
				}
			}
		}
		want := int32(min(2, len(best)))
		if s.N != want {
			return false
		}
		for i := int32(0); i < want; i++ {
			if s.S[i] != best[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
