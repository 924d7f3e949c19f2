// Package aligntest generates sequence pairs for the tests of the alignment
// backends (packages align and wfa): random bases, mutated copies, and the
// fuzzers' byte-to-pair mapping, so both backends are tested on the same
// inputs. It imports neither backend.
package aligntest

import (
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
