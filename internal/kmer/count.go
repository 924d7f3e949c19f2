package kmer

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// This file is the allocation-lean counting substrate behind Count:
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
//	         selection (the scheme requires low ≥ 2; Count bypasses the
//	         filter entirely when low < 2).
//	tally:   every occurrence of an admitted k-mer increments its exact
//	         count, and the occurrence's slot and strand are recorded (−1
//	         when its k-mer was not admitted). Counts of admitted k-mers are exact, so
//	         reliable-k-mer selection is identical to the map-based
//	         reference — the filter can only add count-1 entries that the
//	         selection removes.
//
// The table starts at its floor and doubles as admissions fill it, in both
// filter modes, so its size follows the k-mers it admits, not the
// occurrences routed to it. Nothing is inserted after the tally, so the slots
// it records stay valid through MarkReliable and the numbering, which reads
// each occurrence's column off its slot (number).
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
// counts are marked (MarkReliable) its values are the column ids (number).
// Each value lies beside its key in one entry, so a probe that finds its key
// has the count on the same cache line.
type CountTable struct {
	entries []entry
	n       int
	mask    uint64
}

// entry is one slot of a CountTable: a k-mer, or emptyKmer, and its value.
type entry struct {
	km  Kmer
	val int32
}

// tableFloor is the slot count a table starts at; it doubles from there.
const tableFloor = 1024

// maxTableSlots bounds a table's slots: a slot index travels shifted two bits
// up in the records tally writes (counter.tally), so it must fit 29 bits.
const maxTableSlots = 1 << 29

// NewCountTable allocates an empty table at the floor size.
func NewCountTable() *CountTable {
	t := &CountTable{}
	t.alloc(tableFloor)
	return t
}

// alloc gives t size vacant slots.
func (t *CountTable) alloc(size int) {
	t.entries = make([]entry, size)
	t.mask = uint64(size - 1)
	for i := range t.entries {
		t.entries[i].km = emptyKmer
	}
}

// Len returns the number of stored k-mers.
func (t *CountTable) Len() int { return t.n }

// slot returns the index holding km, or the vacant slot where it belongs.
func (t *CountTable) slot(km Kmer) int { return t.slotAt(km, hash(km)) }

// slotAt is slot for a k-mer whose hash the caller already took.
func (t *CountTable) slotAt(km Kmer, h uint64) int {
	i := h & t.mask
	for e := t.entries[i].km; e != emptyKmer && e != km; e = t.entries[i].km {
		i = (i + 1) & t.mask
	}
	return int(i)
}

func (t *CountTable) grow() {
	old := t.entries
	if 2*len(old) > maxTableSlots {
		panic(fmt.Sprintf("kmer: count table of %d k-mers outgrows %d slots", t.n, maxTableSlots))
	}
	t.alloc(2 * len(old))
	for _, e := range old {
		if e.km != emptyKmer {
			t.entries[t.slot(e.km)] = e
		}
	}
}

// insert places km at a vacant slot with value v (caller guarantees absence).
func (t *CountTable) insert(i int, km Kmer, v int32) {
	t.entries[i] = entry{km, v}
	t.n++
	if 2*t.n >= len(t.entries) {
		t.grow()
	}
}

// Admit inserts km with value 0 if absent (phase-1 admission; no-op when
// already present).
func (t *CountTable) Admit(km Kmer) { t.admitAt(km, hash(km)) }

// admitAt is Admit for a k-mer whose hash the caller already took.
func (t *CountTable) admitAt(km Kmer, h uint64) {
	if i := t.slotAt(km, h); t.entries[i].km == emptyKmer {
		t.insert(i, km, 0)
	}
}

// tally increments km's value when km is in the table (phase-2 tally) and
// returns its slot, or -1 when km is absent.
func (t *CountTable) tally(km Kmer) int32 {
	if i := t.slot(km); t.entries[i].km == km {
		t.entries[i].val++
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

// MarkReliable turns a table of counts into column values: every k-mer whose
// count lies in [low, high] becomes unnumbered, every other one unreliable.
// It returns the number of reliable k-mers.
func (t *CountTable) MarkReliable(low, high int32) int {
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.km == emptyKmer {
			continue
		}
		if e.val >= low && e.val <= high {
			e.val = unnumbered
			n++
		} else {
			e.val = unreliable
		}
	}
	return n
}

// number turns occurrence records, as tally recorded them — slot<<2 | read
// parity<<1 | strand, or -1 for a k-mer the table did not admit — into
// col<<2 | read parity<<1 | strand in place after MarkReliable, or -1 for an
// unreliable k-mer. A reliable k-mer's first occurrence numbers it: it takes
// *next, which then advances, so ids follow the order in which the records
// are numbered.
func (t *CountTable) number(recs []int32, next *int32) {
	for i, r := range recs {
		if r < 0 {
			continue
		}
		e := &t.entries[r>>2]
		if e.val == unnumbered {
			e.val = *next
			*next++
		}
		if e.val < 0 {
			recs[i] = -1
		} else {
			recs[i] = e.val<<2 | r&3
		}
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
// occurrences (the rank's own outgoing total is the proxy Count uses:
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
func (c *counter) observe(part []byte) { c.walk(part, 0, false, nil) }

// tally runs phase 2 (exact counting) over one run part, from a sender whose
// first read is lo, and records each occurrence in recs, when not nil (one
// entry per k-mer of the part, in order): its slot<<2, with bit 1 the parity
// of its read and bit 0 set when the canonical k-mer is the window's reverse
// complement — the strand the scan gives it — or -1 for a k-mer the table
// did not admit. Count tallies the parts in rank order in both comm modes,
// into the records that number then turns into column ids. It must follow
// every observe: an admission after it could move the slots it recorded.
func (c *counter) tally(part []byte, lo int, recs []int32) { c.walk(part, lo, true, recs) }

// walk expands every record of part, which checkRuns accepted, into its
// canonical k-mers and admits (phase 1) or tallies (phase 2) each in turn:
// the first k-mer of a run is read from its first bases at once, the rest by
// rolling one base each, into no buffer.
func (c *counter) walk(part []byte, lo int, tally bool, recs []int32) {
	k := c.k
	mask := Kmer(1)<<(2*uint(k)) - 1
	shift := 2 * uint(k-1)
	j := 0
	cur := newRunCursor(part, lo)
	for {
		read, _, n, bases, ok := cur.next(k)
		if !ok {
			break
		}
		parity := int32(read&1) << 1
		fwd := firstKmer(bases, k)
		rc := RevComp(fwd, k)
		for b := k; ; b++ {
			km := min(fwd, rc)
			if !tally {
				if h := hash(km); c.bloom == nil || c.bloom.testAndSet(h) {
					c.table.admitAt(km, h)
				}
			} else if s := c.table.tally(km); recs != nil {
				if s >= 0 {
					s = s<<2 | parity
					if rc < fwd {
						s |= 1
					}
				}
				recs[j] = s
				j++
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
// part panics naming its index; every part's reads are taken to start at 0.
func CountOccurrences(parts [][]byte, k int, low int32) *CountTable {
	var occ int
	for src, p := range parts {
		occ += runOccurrences(p, k, src, 0, math.MaxInt)
	}
	c := newCounter(k, low, occ)
	for _, p := range parts {
		c.observe(p)
	}
	for _, p := range parts {
		c.tally(p, 0, nil)
	}
	return c.table
}
