package kmer

import (
	"encoding/binary"
	"math/bits"
)

// This file is the allocation-lean counting substrate behind CountAndBuild:
// a cache-line-blocked Bloom filter that absorbs first occurrences (HipMer's
// singleton shield — erroneous k-mers are mostly singletons and must never
// enter the count table) and an open-addressing Kmer→int32 table that
// replaces the builtin map on the owner-side counting hot path.
//
// Counting is two-phase over the received run parts (runs.go), each walked
// with a rolling k-mer encoder once per phase:
//
//	observe: a k-mer already marked in the filter is admitted to the table
//	         (it has possibly been seen before); an unmarked k-mer only sets
//	         its filter bits. Singletons therefore stay out of the table —
//	         except for the filter's false positives, which are admitted
//	         with an eventual exact count of 1 and dropped by the [low,high]
//	         selection (the scheme requires low ≥ 2; CountAndBuild bypasses
//	         the filter entirely when low < 2).
//	tally:   every occurrence of an admitted k-mer increments its exact
//	         count, and the occurrence's slot is recorded (−1 when its k-mer
//	         was not admitted). Counts of admitted k-mers are exact, so
//	         reliable-k-mer selection is identical to the map-based
//	         reference — the filter can only add count-1 entries that the
//	         selection removes.
//
// The table starts at its floor and doubles as admissions fill it, in both
// filter modes, so its size follows the k-mers it admits, not the
// occurrences routed to it. Nothing is inserted after the tally, so the slots
// it records stay valid through MarkReliable and the numbering of the reply
// step, which reads each occurrence's column off its slot (number).
//
// The admitted set can differ with observation order (false positives depend
// on which bits were set first), but only on singletons: a k-mer occurring ≥ 2 times is admitted in
// every order, at the latest when its second occurrence finds the bits its
// first occurrence set. Selection over [low ≥ 2, high] is therefore
// order-invariant, which is what keeps contigs and traffic counters
// bit-identical however the parts are observed.

// emptyKmer marks a vacant table slot: k ≤ 31 packs into at most 62 bits, so
// the all-ones word can never be a canonical k-mer.
const emptyKmer = ^Kmer(0)

// CountTable is an open-addressing Kmer → int32 hash table (linear probing,
// power-of-two capacity, keys mixed by hash). It is the allocation-lean
// replacement for map[Kmer]int32 on the counting hot path, and once its
// counts are marked (MarkReliable) its values are the column ids of the
// reply step (number).
type CountTable struct {
	kms  []Kmer
	vals []int32
	n    int
	mask uint64
}

// tableFloor is the slot count a table starts at; it doubles from there.
const tableFloor = 1024

// NewCountTable allocates an empty table at the floor size.
func NewCountTable() *CountTable {
	t := &CountTable{kms: make([]Kmer, tableFloor), vals: make([]int32, tableFloor), mask: tableFloor - 1}
	for i := range t.kms {
		t.kms[i] = emptyKmer
	}
	return t
}

// Len returns the number of stored k-mers.
func (t *CountTable) Len() int { return t.n }

// slot returns the index holding km, or the vacant slot where it belongs.
func (t *CountTable) slot(km Kmer) int { return t.slotAt(km, hash(km)) }

// slotAt is slot for a k-mer whose hash the caller already took.
func (t *CountTable) slotAt(km Kmer, h uint64) int {
	i := h & t.mask
	for t.kms[i] != emptyKmer && t.kms[i] != km {
		i = (i + 1) & t.mask
	}
	return int(i)
}

func (t *CountTable) grow() {
	old := *t
	size := len(old.kms) * 2
	t.kms = make([]Kmer, size)
	t.vals = make([]int32, size)
	t.mask = uint64(size - 1)
	for i := range t.kms {
		t.kms[i] = emptyKmer
	}
	for i, km := range old.kms {
		if km != emptyKmer {
			j := t.slot(km)
			t.kms[j], t.vals[j] = km, old.vals[i]
		}
	}
}

// insert places km at a vacant slot with value v (caller guarantees absence).
func (t *CountTable) insert(i int, km Kmer, v int32) {
	t.kms[i], t.vals[i] = km, v
	t.n++
	if 2*t.n >= len(t.kms) {
		t.grow()
	}
}

// Admit inserts km with value 0 if absent (phase-1 admission; no-op when
// already present).
func (t *CountTable) Admit(km Kmer) { t.admitAt(km, hash(km)) }

// admitAt is Admit for a k-mer whose hash the caller already took.
func (t *CountTable) admitAt(km Kmer, h uint64) {
	if i := t.slotAt(km, h); t.kms[i] == emptyKmer {
		t.insert(i, km, 0)
	}
}

// tally increments km's value when km is in the table (phase-2 tally) and
// returns its slot, or -1 when km is absent.
func (t *CountTable) tally(km Kmer) int32 {
	if i := t.slot(km); t.kms[i] == km {
		t.vals[i]++
		return int32(i)
	}
	return -1
}

// Column values: after MarkReliable a stored value is a column id (≥ 0),
// unreliable, or reliable and not yet numbered.
const (
	unreliable = int32(-1)
	unnumbered = int32(-2)
)

// MarkReliable turns a table of counts into the column values of the reply
// step: every k-mer whose count lies in [low, high] becomes unnumbered, every
// other one unreliable. It returns the number of reliable k-mers.
func (t *CountTable) MarkReliable(low, high int32) int {
	n := 0
	for i, km := range t.kms {
		if km == emptyKmer {
			continue
		}
		if v := t.vals[i]; v >= low && v <= high {
			t.vals[i] = unnumbered
			n++
		} else {
			t.vals[i] = unreliable
		}
	}
	return n
}

// number turns slots, as tally recorded them, into column ids in place after
// MarkReliable: -1 for an absent or unreliable k-mer, else the k-mer's id. A
// reliable k-mer's first occurrence numbers it: it takes *next, which then
// advances, so ids follow the order in which the slots are numbered.
func (t *CountTable) number(slots []int32, next *int32) {
	for i, s := range slots {
		if s < 0 {
			continue
		}
		v := t.vals[s]
		if v == unnumbered {
			v = *next
			t.vals[s] = v
			*next++
		}
		slots[i] = v
	}
}

// bloomBlockWords is the words-per-block of the blocked Bloom filter: 8
// uint64 = one 64-byte cache line, so a membership probe touches one line.
const bloomBlockWords = 8

// bloomProbes is the number of bits set/tested per key within its block.
const bloomProbes = 4

// blockedBloom is a cache-line-blocked Bloom filter: the low hash bits pick a
// 512-bit block, higher bits pick bloomProbes bit positions inside it. With
// the sizing policy of newBloom (~12 bits per expected key) the false
// positive rate stays around 1%, and a false positive merely admits a
// singleton to the count table (see the file comment), so precision is a
// space/time knob, not a correctness one.
type blockedBloom struct {
	words []uint64
	mask  uint64 // block count - 1 (block count is a power of two)
}

// newBloom sizes a filter for the expected number of distinct keys.
func newBloom(expected int) *blockedBloom {
	nblocks := 1
	for nblocks*bloomBlockWords*64 < expected*12 {
		nblocks <<= 1
	}
	return newBloomBlocks(nblocks)
}

// newBloomBlocks builds a filter with an explicit power-of-two block count —
// tests use tiny filters to force false-positive collisions.
func newBloomBlocks(nblocks int) *blockedBloom {
	if nblocks&(nblocks-1) != 0 || nblocks <= 0 {
		panic("kmer: bloom block count must be a positive power of two")
	}
	return &blockedBloom{words: make([]uint64, nblocks*bloomBlockWords), mask: uint64(nblocks - 1)}
}

// bitsSet returns the number of set bits across the whole filter — the
// occupancy numerator of the kmer.bloom_bits_set metric (occupancy near 50%
// means the sizing proxy undershot and false-positive admissions rise).
func (b *blockedBloom) bitsSet() int64 {
	var n int64
	for _, w := range b.words {
		n += int64(bits.OnesCount64(w))
	}
	return n
}

// testAndSet reports whether all of h's bits were already set, setting them
// either way ("possibly seen before" — the phase-1 admission test).
func (b *blockedBloom) testAndSet(h uint64) bool {
	blk := (h & b.mask) * bloomBlockWords
	// Probe bits come from the high half so they never overlap the block
	// index (block counts stay far below 2^28).
	x := h >> 28
	present := true
	for i := 0; i < bloomProbes; i++ {
		pos := x & 511 // 9 bits: word 3, bit 6
		x >>= 9
		w, bit := blk+pos>>6, uint(pos&63)
		if b.words[w]&(1<<bit) == 0 {
			present = false
			b.words[w] |= 1 << bit
		}
	}
	return present
}

// counter is the streaming two-phase counting state of one owner rank over
// run parts of k-mers of length k.
type counter struct {
	k     int
	low   int32
	bloom *blockedBloom // nil when low < 2: every k-mer is admitted
	table *CountTable
}

// newCounter sizes the Bloom filter for about expectedOcc incoming
// occurrences (the rank's own outgoing total is the proxy CountAndBuild uses:
// the minimizer hash spreads occurrences about evenly, so in ≈ out). The
// table starts at its floor and grows with what it admits: most k-mers at the
// counting stage are sequencing-error singletons the filter keeps out.
func newCounter(k int, low int32, expectedOcc int) *counter {
	c := &counter{k: k, low: low, table: NewCountTable()}
	if low >= 2 {
		c.bloom = newBloom(expectedOcc)
	}
	return c
}

// observe runs phase 1 (admission) over one received run part; parts may be
// observed in any order (see the file comment for why selection stays
// order-invariant).
func (c *counter) observe(part []byte) { c.walk(part, false, nil) }

// tally runs phase 2 (exact counting) over one run part and records each
// occurrence's slot in slots, when not nil (one entry per k-mer of the part,
// in order; -1 for a k-mer the table did not admit). CountAndBuild tallies
// the retained parts in rank order in both comm modes, into the reply
// buffers that number then turns into column ids. It must follow every
// observe: an admission after it could move the slots it recorded.
func (c *counter) tally(part []byte, slots []int32) { c.walk(part, true, slots) }

// walk expands every record of part, which checkRuns accepted, into its
// canonical k-mers and admits (phase 1) or tallies (phase 2) each in turn:
// the first k-mer of a run is read from its first bases at once, the rest by
// rolling one base each, into no buffer.
func (c *counter) walk(part []byte, tally bool, slots []int32) {
	k := c.k
	mask := Kmer(1)<<(2*uint(k)) - 1
	shift := 2 * uint(k-1)
	j := 0
	for off := 0; off < len(part); {
		n := int(binary.LittleEndian.Uint16(part[off:]))
		bases := part[off+runHeader : off+runBytes(n, k)]
		off += runBytes(n, k)
		fwd := firstKmer(bases, k)
		rc := RevComp(fwd, k)
		for b := k; ; b++ {
			km := min(fwd, rc)
			if tally {
				s := c.table.tally(km)
				if slots != nil {
					slots[j] = s
				}
				j++
			} else if h := hash(km); c.bloom == nil || c.bloom.testAndSet(h) {
				c.table.admitAt(km, h)
			}
			if b == n+k-1 {
				break
			}
			code := Kmer(bases[b>>2]>>(6-2*uint(b&3))) & 3
			fwd = (fwd<<2 | code) & mask
			rc = rc>>2 | (3-code)<<shift
		}
	}
}

// firstKmer returns the k-mer of the first k bases of a record's packed
// bases, which hold at least k: they are its leading 2k bits.
func firstKmer(bases []byte, k int) Kmer {
	var w uint64
	if len(bases) >= 8 {
		w = binary.BigEndian.Uint64(bases)
	} else {
		for i, b := range bases {
			w |= uint64(b) << (56 - 8*uint(i))
		}
	}
	return Kmer(w >> (64 - 2*uint(k)))
}

// CountOccurrences is the two-phase Bloom-filtered counting kernel over
// complete run parts of k-mers of length k: k-mers seen once never enter the
// table when low ≥ 2, and every stored count is exact. It returns the same
// reliable selection as the map-based reference for any low ≥ 1 (when
// low < 2 the filter is bypassed so singletons are counted too). A malformed
// part panics naming its index.
func CountOccurrences(parts [][]byte, k int, low int32) *CountTable {
	var occ int
	for src, p := range parts {
		occ += runOccurrences(p, k, src)
	}
	c := newCounter(k, low, occ)
	for _, p := range parts {
		c.observe(p)
	}
	for _, p := range parts {
		c.tally(p, nil)
	}
	return c.table
}
