package dna

import "fmt"

// Packed is a 2-bit-per-base DNA sequence — the memory-reduction direction
// the paper lists as future work (§7). Packing read payloads quarters the
// volume of the read-sequence communication step.
type Packed struct {
	Bits []uint64 // 32 bases per word, first base in the low bits
	N    int      // number of bases
}

// Pack compresses an ACGT sequence; ok is false if seq contains any other
// byte (callers fall back to raw bytes).
func Pack(seq []byte) (Packed, bool) {
	p := Packed{Bits: make([]uint64, (len(seq)+31)/32), N: len(seq)}
	if !packInto(p.Bits, seq) {
		return Packed{}, false
	}
	return p, true
}

// packInto ORs seq's 2-bit codes into the zeroed words of dst, which must
// hold (len(seq)+31)/32 of them; false on the first non-ACGT byte.
func packInto(dst []uint64, seq []byte) bool {
	for i, b := range seq {
		c := Code(b)
		if c == 0xFF {
			return false
		}
		dst[i/32] |= uint64(c) << (2 * uint(i%32))
	}
	return true
}

// At returns base i as an ASCII byte.
func (p Packed) At(i int) byte {
	if i < 0 || i >= p.N {
		panic(fmt.Sprintf("dna: packed index %d out of range [0,%d)", i, p.N))
	}
	return Base(byte(p.Bits[i/32] >> (2 * uint(i%32)) & 3))
}

// Unpack expands back to ASCII.
func (p Packed) Unpack() []byte {
	return p.unpackInto(make([]byte, p.N))
}

// unpackInto writes the p.N bases into dst[:p.N] and returns that prefix.
func (p Packed) unpackInto(dst []byte) []byte {
	dst = dst[:p.N]
	for i := range dst {
		dst[i] = Base(byte(p.Bits[i/32] >> (2 * uint(i%32)) & 3))
	}
	return dst
}

// PackAll packs a batch into one word stream (reads back-to-back, each
// starting on a word boundary for simple slicing), sized from the lengths
// before any base is packed; ok is false if any read has a non-ACGT byte.
func PackAll(seqs [][]byte) (words []uint64, ok bool) {
	total := 0
	for _, s := range seqs {
		total += (len(s) + 31) / 32
	}
	words = make([]uint64, total)
	if !PackAllInto(words, seqs) {
		return nil, false
	}
	return words, true
}

// PackAllInto is PackAll into words, which the caller zeroed and sized to
// PackedWords of the reads' lengths; it reports false, with words partly
// written, if any read has a non-ACGT byte.
func PackAllInto(words []uint64, seqs [][]byte) bool {
	off := 0
	for _, s := range seqs {
		nw := (len(s) + 31) / 32
		if !packInto(words[off:off+nw], s) {
			return false
		}
		off += nw
	}
	return true
}

// UnpackAll reverses PackAll given the original lengths. The reads are
// slices of one buffer of exactly the summed length.
func UnpackAll(words []uint64, lens []int) [][]byte {
	total := 0
	for _, n := range lens {
		total += n
	}
	buf := make([]byte, total)
	out := make([][]byte, len(lens))
	off := 0
	for i, n := range lens {
		nw := (n + 31) / 32
		p := Packed{Bits: words[off : off+nw], N: n}
		out[i] = p.unpackInto(buf[:n:n])
		buf = buf[n:]
		off += nw
	}
	return out
}

// PackedWords returns how many words PackAll uses for these lengths.
func PackedWords(lens []int) int {
	total := 0
	for _, n := range lens {
		total += (n + 31) / 32
	}
	return total
}
