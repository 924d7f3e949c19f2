// Package kmer implements 2-bit k-mer encoding (k ≤ 31), canonical forms,
// and the distributed k-mer counting / reliable-k-mer selection stage that
// produces the |reads| × |k-mers| matrix A of Algorithm 1 (lines 3–4).
package kmer

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/dna"
)

// MaxK is the largest k that fits 2 bits per base in a uint64.
const MaxK = 31

// Kmer is a 2-bit packed k-mer; bases are packed most-significant-first so
// integer order equals lexicographic order.
type Kmer uint64

// Decode expands a packed k-mer back to ASCII (mostly for tests/debugging).
func Decode(km Kmer, k int) []byte {
	out := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		out[i] = dna.Base(byte(km & 3))
		km >>= 2
	}
	return out
}

// Encode packs seq[0:k]; panics if a non-base is present.
func Encode(seq []byte, k int) Kmer {
	if k > MaxK || k <= 0 {
		panic(fmt.Sprintf("kmer: k=%d out of range (1..%d)", k, MaxK))
	}
	var km Kmer
	for i := 0; i < k; i++ {
		c := dna.Code(seq[i])
		if c == 0xFF {
			panic(fmt.Sprintf("kmer: non-base %q at %d", seq[i], i))
		}
		km = km<<2 | Kmer(c)
	}
	return km
}

// RevComp returns the reverse complement of a packed k-mer: its bases
// complemented (each 2-bit code c becomes 3−c, a bit flip) in reverse order.
func RevComp(km Kmer, k int) Kmer {
	x := bits.ReverseBytes64(^uint64(km))
	x = x>>4&0x0f0f0f0f0f0f0f0f | x&0x0f0f0f0f0f0f0f0f<<4
	x = x>>2&0x3333333333333333 | x&0x3333333333333333<<2
	return Kmer(x >> (64 - 2*uint(k)))
}

// Occur is one occurrence of a canonical k-mer in a read, packed into one
// 32-bit word so that the matrix triples carrying it are 12 unpadded bytes
// (the wire codec's bulk-copy path): bits 31..1 hold the start position of
// the k-mer window on the read's forward strand, bit 0 is set when the
// canonical form is the reverse complement of the window. The layout is part
// of the checkpoint schema.
type Occur uint32

// MakeOccur packs a window position (0 ≤ pos ≤ 2³¹−1) and its strand.
func MakeOccur(pos int32, rc bool) Occur {
	o := Occur(pos) << 1
	if rc {
		o |= 1
	}
	return o
}

// Pos is the start of the k-mer window on the read's forward strand.
func (o Occur) Pos() int32 { return int32(o >> 1) }

// RC reports whether the canonical k-mer is the window's reverse complement.
func (o Occur) RC() bool { return o&1 == 1 }

// KPos is a canonical k-mer occurrence during extraction.
type KPos struct {
	Kmer Kmer
	Pos  int32
	RC   bool
}

// Extract lists the canonical k-mers of seq with a rolling encoder,
// deduplicated so that each canonical k-mer appears at most once per read
// (first occurrence wins — a deterministic choice). The result is freshly
// allocated; hot loops that process one read at a time should hold an
// ExtractScratch and call ExtractInto instead.
func Extract(seq []byte, k int) []KPos {
	var sc ExtractScratch
	return sc.ExtractInto(seq, k)
}

// ExtractScratch is the reusable state of the extraction scan: an
// open-addressing per-read dedup set whose slots are invalidated in O(1)
// between reads by a generation tag instead of a clear, the rolling
// minimizer's recent hashes, and the output buffers of ExtractInto. A
// scratch is single-goroutine state; the distributed counter gives each pool
// worker its own (package par's per-worker state).
type ExtractScratch struct {
	kms  []Kmer
	gens []uint32
	gen  uint32
	mask uint64

	ring, suf [64]uint64 // the scan's recent minimizer hashes and block suffix minima, by position

	outKms []uint64
	outOcc []Occur
	out    []KPos
}

// ensure sizes the dedup set for up to n distinct k-mers and opens a fresh
// generation.
func (sc *ExtractScratch) ensure(n int) {
	need := 1024
	for need < 2*n {
		need <<= 1
	}
	if len(sc.kms) < need {
		sc.kms = make([]Kmer, need)
		sc.gens = make([]uint32, need)
		sc.mask = uint64(need - 1)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 { // generation counter wrapped: hard-reset the tags
		clear(sc.gens)
		sc.gen = 1
	}
}

// seen reports whether km was already recorded this generation, recording it
// otherwise. One multiply places a k-mer: the set holds one read's k-mers,
// so it needs no stronger mix than that.
func (sc *ExtractScratch) seen(km Kmer) bool {
	i := uint64(km) * 0x9e3779b97f4a7c15 >> 32 & sc.mask
	for sc.gens[i] == sc.gen {
		if sc.kms[i] == km {
			return true
		}
		i = (i + 1) & sc.mask
	}
	sc.kms[i], sc.gens[i] = km, sc.gen
	return false
}

// windows is the number of k-mer windows of a read of length n: the most
// occurrences its extraction can yield.
func windows(n, k int) int { return max(0, n-k+1) }

// checkK panics unless 1 ≤ k ≤ MaxK.
func checkK(k int) {
	if k <= 0 || k > MaxK {
		panic(fmt.Sprintf("kmer: k=%d out of range (1..%d)", k, MaxK))
	}
}

// scan is the extraction loop: it finds seq's canonical k-mers with a
// rolling encoder, deduplicated (first occurrence wins), and writes each
// one's position and strand into occ and returns how many it wrote. When kms
// is not nil it writes the k-mers beside them; when own is not nil, the
// owner of each among p ranks (Owner). Every non-nil slice must hold
// windows(len(seq), k) entries; the distributed counter passes each read its
// span of the rank's flat occurrence stream, so the occurrences land where
// they are routed from with no per-read copy.
//
// The owner comes from a rolling minimizer: the canonical m-mer ending at
// each position, read off the k-mer encoder, is hashed (an invalid one hashes to the maximum) into a ring
// by position, and the least hash of a k-mer window — its m-mers end at the
// last w = k−m+1 positions — is the van Herk/Gil-Werman sliding minimum:
// positions fall into blocks of w, a prefix minimum runs within the current
// block, each block's suffix minima are taken when it ends, and a window is
// the suffix of one block and the prefix of the next. That is three minima
// per position and no data-dependent branch.
func (sc *ExtractScratch) scan(seq []byte, k, p int, kms []uint64, occ []Occur, own []uint16) int {
	if len(seq) < k {
		return 0
	}
	sc.ensure(windows(len(seq), k))
	mask := Kmer(1)<<(2*uint(k)) - 1
	shift := 2 * uint(k-1)
	m := min(minimizerLen, k)
	w := k - m + 1
	mmask := Kmer(1)<<(2*uint(m)) - 1
	mshift := 2 * uint(k-m)
	var fwd, rc Kmer
	var pre, least uint64  // the least hash from the block's start to i, and of i's window
	valid, n, b := 0, 0, 0 // b is i's offset in its block
	for i := 0; i < len(seq); i++ {
		c := dna.Code(seq[i])
		valid++
		if c == 0xFF {
			valid = 0
		}
		fwd = (fwd<<2 | Kmer(c&3)) & mask
		rc = rc>>2 | Kmer(3-c&3)<<shift
		if own != nil {
			// The m-mer ending here is fwd's low 2m bits, its reverse
			// complement rc's high 2m bits.
			h := ^uint64(0)
			if valid >= m {
				h = minimizerHash(min(fwd&mmask, rc>>mshift))
			}
			sc.ring[i&63] = h
			if b == 0 {
				pre = h
			} else {
				pre = min(pre, h)
			}
			least = pre
			if b < w-1 {
				least = min(least, sc.suf[(i-w+1)&63])
				b++
			} else {
				s := ^uint64(0)
				for e := i; e > i-w; e-- {
					s = min(s, sc.ring[e&63])
					sc.suf[e&63] = s
				}
				b = 0
			}
		}
		if valid < k {
			continue
		}
		canon, isRC := fwd, false
		if rc < fwd {
			canon, isRC = rc, true
		}
		if sc.seen(canon) {
			continue
		}
		if kms != nil {
			kms[n] = uint64(canon)
		}
		if own != nil {
			own[n] = ownerOf(least, p)
		}
		occ[n] = MakeOccur(int32(i-k+1), isRC)
		n++
	}
	return n
}

// ExtractInto is Extract with scratch reuse: the returned slice aliases the
// scratch's buffer and is valid until the next call. Callers that retain
// results across calls must copy.
func (sc *ExtractScratch) ExtractInto(seq []byte, k int) []KPos {
	checkK(k)
	w := windows(len(seq), k)
	if w == 0 {
		return nil
	}
	if cap(sc.out) < w {
		sc.outKms, sc.outOcc, sc.out = make([]uint64, w), make([]Occur, w), make([]KPos, 0, w)
	}
	n := sc.scan(seq, k, 0, sc.outKms[:w], sc.outOcc[:w], nil)
	out := sc.out[:n]
	for i := range out {
		o := sc.outOcc[i]
		out[i] = KPos{Kmer: Kmer(sc.outKms[i]), Pos: o.Pos(), RC: o.RC()}
	}
	return out
}

// hash mixes a k-mer for the count table and the Bloom filter (splitmix64
// finalizer). It is a different function from minimizerHash, which picks
// owners, so the k-mers one owner counts are spread over every table slot
// and filter block.
func hash(km Kmer) uint64 {
	x := uint64(km) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// minimizerLen is m, the length of the m-mers whose minimum picks a k-mer's
// owner, chosen by measurement (DESIGN.md §4): of m ∈ {15, 17, 19}, 19
// spreads the occurrences most evenly over 4 to 64 owners, for 0.24 bytes
// per occurrence of run more than m = 15.
const minimizerLen = 19

// minimizerHash orders canonical m-mers for the minimizer (a bijective
// xor-shift-multiply mix, so equal hashes are equal m-mers), and the least
// hash picks the owner (ownerOf). It must stay unrelated to hash.
func minimizerHash(mm Kmer) uint64 {
	x := uint64(mm)
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	return x ^ x>>32
}

// ownerOf maps a minimizer's hash to one of p ranks by its low 32 bits: the
// least of a window's hashes is small, so its high bits are far from
// uniform, but its low bits are as even as any hash's.
func ownerOf(h uint64, p int) uint16 { return uint16(h & (1<<32 - 1) * uint64(p) >> 32) }

// Owner returns the rank responsible for counting the canonical k-mer km of
// length k: the owner of its canonical minimizer, the m-mer of least
// minimizerHash among the canonical forms of km's k−m+1 m-mers (m =
// min(minimizerLen, k), so for k ≤ m the k-mer is its own minimizer). A
// k-mer and its reverse complement hold the same canonical m-mers, so every
// occurrence of a k-mer on either strand meets at one owner; and the
// consecutive k-mers of a read that share a minimizer share an owner, which
// is what lets them travel as one run. The scan finds the same minimum with a
// rolling window instead of this loop.
func Owner(km Kmer, k, p int) int {
	m := min(minimizerLen, k)
	mmask := Kmer(1)<<(2*uint(m)) - 1
	best := ^uint64(0)
	for j := 0; j <= k-m; j++ {
		mm := km >> (2 * uint(k-m-j)) & mmask
		best = min(best, minimizerHash(min(mm, RevComp(mm, m))))
	}
	return int(ownerOf(best, p))
}

// CountSerial counts, for each canonical k-mer, in how many reads it occurs.
// Shared-memory reference used by the baselines and by tests of the
// distributed counter; the extraction scan reuses one scratch across reads.
func CountSerial(reads [][]byte, k int) map[Kmer]int32 {
	counts := make(map[Kmer]int32)
	var sc ExtractScratch
	for _, seq := range reads {
		for _, kp := range sc.ExtractInto(seq, k) {
			counts[kp.Kmer]++
		}
	}
	return counts
}

// SelectReliable returns the sorted canonical k-mers whose read-count lies in
// [low, high]: k-mers seen once are likely sequencing errors, k-mers seen far
// more often than the depth are repeats that would densify C = A·Aᵀ.
func SelectReliable(counts map[Kmer]int32, low, high int32) []Kmer {
	out := make([]Kmer, 0, len(counts))
	for km, c := range counts {
		if c >= low && c <= high {
			out = append(out, km)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
