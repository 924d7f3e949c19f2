// Package aligntest generates sequence pairs for the tests of the alignment
// backends (packages align and wfa): random bases, mutated copies, and the
// fuzzers' byte-to-pair mapping, so both backends are tested on the same
// inputs. It imports neither backend.
package aligntest

import (
	"fmt"
	"math/rand"

	"repro/internal/dna"
)

// RandSeq returns n uniform random bases.
func RandSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = dna.Bases[rng.Intn(4)]
	}
	return s
}

// Mutate copies s with substitutions, insertions and deletions, each at a
// third of rate per base.
func Mutate(rng *rand.Rand, s []byte, rate float64) []byte {
	out := make([]byte, 0, len(s)+8)
	for _, b := range s {
		if rng.Float64() >= rate {
			out = append(out, b)
			continue
		}
		switch rng.Intn(3) {
		case 0:
			out = append(out, dna.Bases[rng.Intn(4)])
		case 1:
			out = append(out, dna.Bases[rng.Intn(4)], b)
		}
	}
	return out
}

// Pair draws one extension problem: s of up to maxLen bases and, when
// related, a copy mutated at rate whose tail is cut short or runs on into
// unrelated sequence a third of the time each (one read usually ends first);
// otherwise an independent random sequence.
func Pair(rng *rand.Rand, maxLen int, rate float64, related bool) (s, t []byte) {
	s = RandSeq(rng, rng.Intn(maxLen))
	if !related {
		return s, RandSeq(rng, rng.Intn(maxLen))
	}
	t = Mutate(rng, s, rate)
	switch rng.Intn(3) {
	case 0:
		t = t[:rng.Intn(len(t)+1)]
	case 1:
		t = append(t, RandSeq(rng, rng.Intn(50))...)
	}
	return s, t
}

// FuzzPair turns fuzzer bytes into a related pair: raw becomes a base
// sequence, and each edit byte rewrites the base at its position (low
// values substitute, insert or delete; the rest copy).
func FuzzPair(raw, edits []byte) (s, t []byte) {
	s = make([]byte, len(raw))
	for i, b := range raw {
		s[i] = dna.Bases[b&3]
	}
	for i, b := range s {
		op := byte(255)
		if i < len(edits) {
			op = edits[i]
		}
		switch {
		case op < 8:
			t = append(t, dna.Bases[op&3])
		case op < 12:
			t = append(t, dna.Bases[op&3], b)
		case op < 16:
		default:
			t = append(t, b)
		}
	}
	return s, t
}

// AddFuzzSeeds is the in-code seed corpus both FuzzExtendMatchesRef targets
// start from (the committed files under testdata/fuzz add longer pairs).
func AddFuzzSeeds(add func(raw, edits []byte, drop uint8)) {
	add([]byte("ACGTACGTACGTACGTACGTACGTACGT"), []byte{}, 15)
	add([]byte("\x00\x01\x02\x03\x00\x01\x02\x03\x03\x02\x01\x00\x01\x01\x02\x03\x00\x00"),
		[]byte{255, 255, 255, 1, 255, 255, 9, 255, 255, 13}, 7)
	add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"),
		[]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 4)
}

// SeededOverlap returns two 3%-error reads u and v of one 6 kb sequence that
// overlap by about 2 kb, and the start on each of an exact k-mer they share
// inside the overlap — what the k-mer stage would hand the aligner.
func SeededOverlap(seed int64, k int) (u, v []byte, pu, pv int32) {
	rng := rand.New(rand.NewSource(seed))
	g := RandSeq(rng, 6000)
	u = Mutate(rng, g[:4000], 0.03)
	v = Mutate(rng, g[2000:], 0.03)
	idx := map[string]int32{}
	for i := 0; i+k <= len(u); i++ {
		idx[string(u[i:i+k])] = int32(i)
	}
	for j := 0; j+k <= len(v); j++ {
		if i, ok := idx[string(v[j:j+k])]; ok {
			return u, v, i, int32(j)
		}
	}
	panic("aligntest: no shared k-mer")
}

// ChainedCase is a read pair sharing an exact run of K+Delta bases, and the
// two seeds a k-mer stage would report at the run's two ends: (PU, PV) and
// the same window shifted Delta bases along the diagonal, (PU2, PV2), both in
// forward coordinates of U and V. With RC the run sits on V's reverse strand.
type ChainedCase struct {
	U, V             []byte
	K, Delta         int32
	PU, PV, PU2, PV2 int32
	RC               bool
}

// SeedExtendFunc is a backend's SeedExtend reduced to plain values (this
// package imports no backend): the alignment's score and half-open extents.
type SeedExtendFunc func(u, v []byte, k, pu, pv int32, rc bool) (score, bu, eu, bv, ev int32)

// NewChained assembles a case from its five pieces: each read is its left
// flank reversed (flanks are extension problems, written outward from the
// run), the run, then its right flank. Empty flanks put the seeds at read
// boundaries.
func NewChained(leftU, leftV, run, rightU, rightV []byte, k, delta int32, rc bool) ChainedCase {
	if int32(len(run)) != k+delta || delta < 1 || delta > k {
		panic("aligntest: run must hold k+delta bases, 1 ≤ delta ≤ k")
	}
	join := func(left, right []byte) []byte {
		out := make([]byte, 0, len(left)+len(run)+len(right))
		for i := len(left) - 1; i >= 0; i-- {
			out = append(out, left[i])
		}
		return append(append(out, run...), right...)
	}
	c := ChainedCase{U: join(leftU, rightU), V: join(leftV, rightV), K: k, Delta: delta, RC: rc}
	c.PU, c.PU2 = int32(len(leftU)), int32(len(leftU))+delta
	c.PV, c.PV2 = int32(len(leftV)), int32(len(leftV))+delta
	if rc {
		// The window [p, p+k) of the strand that matches u is
		// [LV−p−k, LV−p) on the stored read.
		lv := int32(len(c.V))
		c.V = dna.RevComp(c.V)
		c.PV, c.PV2 = lv-c.PV-k, lv-c.PV2-k
	}
	return c
}

// Chained draws a case whose flanks are two independent Pair problems at the
// given error rate (so either read may end at the run, or run on alone).
func Chained(rng *rand.Rand, maxLen int, k, delta int32, rate float64, rc bool) ChainedCase {
	leftU, leftV := Pair(rng, maxLen, rate, true)
	rightU, rightV := Pair(rng, maxLen, rate, true)
	return NewChained(leftU, leftV, RandSeq(rng, int(k+delta)), rightU, rightV, k, delta, rc)
}

// EachChained is the sweep both backends' lemma tests run: per error rate
// (0, 0.5%, 3%, 15%) and strand, n cases with k in [5,31] and delta in [1,k],
// every sixth pinned to delta = 1 or delta = k.
func EachChained(rng *rand.Rand, n int, fn func(c ChainedCase, rate float64)) {
	for _, rate := range []float64{0, 0.005, 0.03, 0.15} {
		for _, rc := range []bool{false, true} {
			for i := 0; i < n; i++ {
				k := int32(5 + rng.Intn(27))
				delta := int32(1 + rng.Intn(int(k)))
				if i%6 == 0 {
					delta = []int32{1, k}[i/6%2]
				}
				fn(Chained(rng, 250, k, delta, rate, rc), rate)
			}
		}
	}
}

// String describes the case for a failure message.
func (c ChainedCase) String() string {
	return fmt.Sprintf("k %d δ %d rc %v, seeds (%d,%d) and (%d,%d)\nu=%q\nv=%q",
		c.K, c.Delta, c.RC, c.PU, c.PV, c.PU2, c.PV2, c.U, c.V)
}

// FuzzChained maps fuzzer bytes to a case: k in [5,31], delta in [1,k], the
// run from raw's first bytes (cycled), the flanks from the two halves of raw
// and edits through FuzzPair.
func FuzzChained(raw, edits []byte, kb, db uint8, rc bool) ChainedCase {
	k := 5 + int32(kb)%27
	delta := 1 + int32(db)%k
	run := make([]byte, k+delta)
	for i := range run {
		b := byte(i)
		if len(raw) > 0 {
			b = raw[i%len(raw)] + byte(i/len(raw))
		}
		run[i] = dna.Bases[b&3]
	}
	hr, he := len(raw)/2, min(len(edits), len(raw)/2)
	leftU, leftV := FuzzPair(raw[:hr], edits[:he])
	rightU, rightV := FuzzPair(raw[hr:], edits[he:])
	return NewChained(leftU, leftV, run, rightU, rightV, k, delta, rc)
}

// Identical extends both seeds of the case and reports whether the two
// alignments agree in score and extents, with both for the failure message.
func (c ChainedCase) Identical(ext SeedExtendFunc) (same bool, first, second [5]int32) {
	first[0], first[1], first[2], first[3], first[4] = ext(c.U, c.V, c.K, c.PU, c.PV, c.RC)
	second[0], second[1], second[2], second[3], second[4] = ext(c.U, c.V, c.K, c.PU2, c.PV2, c.RC)
	return first == second, first, second
}

// Trim cuts up to lo bases from the start and up to hi from the end of U
// (onU) or V, as the reads are stored, never into either seed window, so a
// read of a related pair may end nested in the other. Seed positions follow
// the cut.
func (c ChainedCase) Trim(onU bool, lo, hi int) ChainedCase {
	seq, p, p2 := &c.U, &c.PU, &c.PU2
	if !onU {
		seq, p, p2 = &c.V, &c.PV, &c.PV2
	}
	lo = min(lo, int(min(*p, *p2)))
	hi = min(hi, len(*seq)-int(max(*p, *p2)+c.K))
	*seq = (*seq)[lo : len(*seq)-hi]
	*p -= int32(lo)
	*p2 -= int32(lo)
	return c
}

// Inserted returns n random bases s and a copy t with g < n random bases
// inserted, spread evenly and none at either end: an alignment of all of
// both crosses exactly g single-base gaps.
func Inserted(rng *rand.Rand, n, g int) (s, t []byte) {
	s = RandSeq(rng, n)
	t = make([]byte, 0, n+g)
	next := 1 // the next insertion goes after base ⌊next·n/(g+1)⌋
	for i, b := range s {
		t = append(t, b)
		for next <= g && i+1 == next*n/(g+1) {
			t = append(t, dna.Bases[rng.Intn(4)])
			next++
		}
	}
	return s, t
}
