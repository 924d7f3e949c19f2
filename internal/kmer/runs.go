package kmer

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dna"
)

// A run part is what one rank routes to one owner in CountAndBuild: the
// maximal runs of its reads' consecutive kept k-mer windows that share that
// owner (a dropped duplicate window, an invalid base or a change of owner
// ends a run), in stream order, each as one record:
//
//	n      2 bytes, little-endian: the run's k-mer count, 1..maxRun
//	bases  ⌈(n+k−1)/4⌉ bytes: the n+k−1 bases the run spans, 2 bits each
//	       (dna.Code), four to a byte, the first base in the high bits; the
//	       bits after the last base are zero
//
// The owner rolls a k-mer encoder over the bases, so the part stands for its
// n canonical k-mers in order with no k-mer word on the wire. The element
// type is the byte, whose wire fingerprint is not uint64's: a build that
// routes k-mer words refuses the frame instead of counting its bytes as
// k-mers.

// runHeader is the byte length of a record's k-mer count.
const runHeader = 2

// maxRun is the most k-mers one record holds; a longer run is cut.
const maxRun = 1<<16 - 1

// runBytes is the length of the record of a run of n k-mers of length k.
func runBytes(n, k int) int { return runHeader + (n+k+2)/4 }

// putRun writes into dst, runBytes(n, k) bytes long, the record of the run of
// n k-mers whose bases are seq, n+k−1 of them, all ACGT.
func putRun(dst []byte, seq []byte, n int) {
	binary.LittleEndian.PutUint16(dst, uint16(n))
	dst = dst[runHeader:]
	full := len(seq) &^ 3
	for j := 0; j < full; j += 4 {
		dst[j>>2] = dna.Code(seq[j])<<6 | dna.Code(seq[j+1])<<4 | dna.Code(seq[j+2])<<2 | dna.Code(seq[j+3])
	}
	if full < len(seq) {
		var b byte
		for j := full; j < full+4; j++ {
			b <<= 2
			if j < len(seq) {
				b |= dna.Code(seq[j])
			}
		}
		dst[full>>2] = b
	}
}

// checkRuns walks a run part's record headers and returns how many k-mers of
// length k it holds, or an error for the first record that is malformed: a
// header cut short, a zero-length run, a run whose bases pass the part's end,
// or a last byte with bits set after the run's last base.
func checkRuns(part []byte, k int) (int, error) {
	occ := 0
	for off := 0; off < len(part); {
		if len(part)-off < runHeader {
			return 0, fmt.Errorf("record at byte %d: %d bytes left, want a %d-byte header", off, len(part)-off, runHeader)
		}
		n := int(binary.LittleEndian.Uint16(part[off:]))
		if n == 0 {
			return 0, fmt.Errorf("record at byte %d: zero-length run", off)
		}
		end := off + runBytes(n, k)
		if end > len(part) {
			return 0, fmt.Errorf("record at byte %d: a run of %d k-mers needs %d bytes, the part ends at %d", off, n, end-off, len(part))
		}
		if pad := (4 - (n+k-1)&3) & 3; part[end-1]&(1<<(2*pad)-1) != 0 {
			return 0, fmt.Errorf("record at byte %d: bits set after the run's last base", off)
		}
		occ += n
		off = end
	}
	return occ, nil
}

// runOccurrences is checkRuns for a part received from rank src: the
// owner's first walk of it, before the counter trusts its headers. A
// malformed part panics naming src.
func runOccurrences(part []byte, k, src int) int {
	occ, err := checkRuns(part, k)
	if err != nil {
		panic(fmt.Sprintf("kmer: run part from rank %d: %v", src, err))
	}
	return occ
}
