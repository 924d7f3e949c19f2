// Package dna provides the DNA alphabet Σ = {A, C, G, T}, Watson–Crick
// complements, reverse complements and 2-bit base codes shared by the whole
// pipeline (paper §2).
package dna

import "slices"

// Bases in code order: code 0..3 = A, C, G, T. The complement of code b is
// 3-b, which is what makes the 2-bit k-mer reverse complement cheap.
const Bases = "ACGT"

// codeTab maps ASCII (upper or lower case) to the 2-bit base code, or 0xFF
// for non-bases.
var codeTab [256]byte

// compTab maps an ASCII byte to its IUPAC complement: A↔T, C↔G and the
// ambiguity codes R↔Y, K↔M, B↔V, D↔H swap; S, W, N and every other byte map
// to themselves. A lower-case letter maps to its upper-case complement, as
// fasta.Read upper-cases reads, so the table is an involution on upper case:
// a sequence read off either strand complements back to itself.
var compTab [256]byte

func init() {
	for i := range codeTab {
		codeTab[i] = 0xFF
		compTab[i] = byte(i)
	}
	for code, b := range []byte(Bases) {
		codeTab[b] = byte(code)
		codeTab[b|0x20] = byte(code) // lower case
	}
	for b := byte('a'); b <= 'z'; b++ {
		compTab[b] = b &^ 0x20
	}
	for _, p := range []string{"AT", "CG", "RY", "KM", "BV", "DH"} {
		compTab[p[0]], compTab[p[1]] = p[1], p[0]
		compTab[p[0]|0x20], compTab[p[1]|0x20] = p[1], p[0]
	}
}

// Code returns the 2-bit code of an ASCII base, or 0xFF if b is not a base.
func Code(b byte) byte { return codeTab[b] }

// Base returns the ASCII base for a 2-bit code.
func Base(code byte) byte { return Bases[code&3] }

// IsBase reports whether b is one of ACGT (either case).
func IsBase(b byte) bool { return codeTab[b] != 0xFF }

// Complement returns the IUPAC complement of an ASCII base (see compTab).
func Complement(b byte) byte { return compTab[b] }

// ComplementCode returns the complement of a 2-bit base code.
func ComplementCode(code byte) byte { return 3 - (code & 3) }

// RevComp returns a new slice holding the reverse complement of seq.
func RevComp(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[len(seq)-1-i] = compTab[b]
	}
	return out
}

// RevCompInto writes the reverse complement of src into buf (grown
// geometrically when too small, so a run of ever-longer reads re-allocates
// O(log) times) and returns the filled slice — the allocation-free variant
// hot loops use with a reusable buffer (e.g. align.Scratch). buf and src
// must not overlap.
func RevCompInto(buf, src []byte) []byte {
	buf = slices.Grow(buf[:0], len(src))[:len(src)]
	for i, b := range src {
		buf[len(src)-1-i] = compTab[b]
	}
	return buf
}

// RevCompInPlace reverse-complements seq in place.
func RevCompInPlace(seq []byte) {
	i, j := 0, len(seq)-1
	for i < j {
		seq[i], seq[j] = compTab[seq[j]], compTab[seq[i]]
		i++
		j--
	}
	if i == j {
		seq[i] = compTab[seq[i]]
	}
}

// RevCompRange returns the reverse complement of seq[lo..hi] (inclusive
// bounds), the "descending slice" l[hi:lo] of the paper's §4.4 notation.
func RevCompRange(seq []byte, lo, hi int) []byte {
	if lo > hi {
		return nil
	}
	out := make([]byte, hi-lo+1)
	for k := 0; k < len(out); k++ {
		out[k] = compTab[seq[hi-k]]
	}
	return out
}

// Valid reports whether every byte of seq is an ACGT base.
func Valid(seq []byte) bool {
	for _, b := range seq {
		if codeTab[b] == 0xFF {
			return false
		}
	}
	return true
}
