package kmer

import "math/bits"

// This file is the allocation-lean counting substrate behind CountAndBuild:
// a cache-line-blocked Bloom filter that absorbs first occurrences (HipMer's
// singleton shield — erroneous k-mers are mostly singletons and must never
// enter the count table) and an open-addressing Kmer→int32 table that
// replaces the builtin map on the owner-side counting hot path.
//
// Counting is two-phase over the received occurrence parts:
//
//	observe: a k-mer already marked in the filter is admitted to the table
//	         (it has possibly been seen before); an unmarked k-mer only sets
//	         its filter bits. Singletons therefore stay out of the table —
//	         except for the filter's false positives, which are admitted
//	         with an eventual exact count of 1 and dropped by the [low,high]
//	         selection (the scheme requires low ≥ 2; CountAndBuild bypasses
//	         the filter entirely when low < 2).
//	tally:   every occurrence of an admitted k-mer increments its exact
//	         count. Counts of admitted k-mers are exact, so reliable-k-mer
//	         selection is identical to the map-based reference — the filter
//	         can only add count-1 entries that the selection removes.
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

// tableHash re-finalizes hash(km) for table slots and Bloom blocks. The
// extra mix is load-bearing: Owner routing selects this rank's k-mers by
// hash(km) mod P, so every k-mer an owner counts shares its low hash bits
// at power-of-two rank counts — indexing the table or filter with hash(km)
// directly would leave only 1/P of the blocks and start slots reachable,
// saturating the filter and clustering the probes exactly where the
// pipeline runs (P = 4, 16). A second finalizer round decorrelates the
// bits (murmur3's 64-bit finalizer).
func tableHash(km Kmer) uint64 {
	h := hash(km)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// CountTable is an open-addressing Kmer → int32 hash table (linear probing,
// power-of-two capacity, splitmix-hashed keys). It is the allocation-lean
// replacement for map[Kmer]int32 on the counting hot path, and once its
// counts are marked (MarkReliable) it is the k-mer → column-id index of the
// reply step (Column).
type CountTable struct {
	kms  []Kmer
	vals []int32
	n    int
	mask uint64
}

// NewCountTable allocates a table pre-sized for about capHint entries.
func NewCountTable(capHint int) *CountTable {
	size := 1024
	for size < 2*capHint {
		size <<= 1
	}
	t := &CountTable{kms: make([]Kmer, size), vals: make([]int32, size), mask: uint64(size - 1)}
	for i := range t.kms {
		t.kms[i] = emptyKmer
	}
	return t
}

// Len returns the number of stored k-mers.
func (t *CountTable) Len() int { return t.n }

// slot returns the index holding km, or the vacant slot where it belongs.
func (t *CountTable) slot(km Kmer) int {
	i := tableHash(km) & t.mask
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
func (t *CountTable) Admit(km Kmer) {
	if i := t.slot(km); t.kms[i] == emptyKmer {
		t.insert(i, km, 0)
	}
}

// AddIfPresent increments km's value when km is in the table (phase-2 tally).
func (t *CountTable) AddIfPresent(km Kmer) {
	if i := t.slot(km); t.kms[i] == km {
		t.vals[i]++
	}
}

// Get returns km's value and whether it is present.
func (t *CountTable) Get(km Kmer) (int32, bool) {
	if i := t.slot(km); t.kms[i] == km {
		return t.vals[i], true
	}
	return 0, false
}

// Column-index values: after MarkReliable a stored value is a column id
// (≥ 0), unreliable, or reliable and not yet numbered.
const (
	unreliable = int32(-1)
	unnumbered = int32(-2)
)

// MarkReliable turns a table of counts into the column index of the reply
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

// Column returns km's column id after MarkReliable, or -1 when km is absent
// or unreliable. A reliable k-mer's first lookup numbers it: it takes *next,
// which then advances, so ids follow the order of first lookup.
func (t *CountTable) Column(km Kmer, next *int32) int32 {
	i := t.slot(km)
	if t.kms[i] != km {
		return unreliable
	}
	if t.vals[i] == unnumbered {
		t.vals[i] = *next
		*next++
	}
	return t.vals[i]
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

// counter is the streaming two-phase counting state of one owner rank.
type counter struct {
	low   int32
	bloom *blockedBloom // nil when low < 2: every k-mer is admitted
	table *CountTable
}

// newCounter sizes the counting state for about expectedOcc incoming
// occurrences (the rank's own outgoing total is the proxy CountAndBuild uses:
// the k-mer hash spreads occurrences uniformly, so in ≈ out).
func newCounter(low int32, expectedOcc int) *counter {
	c := &counter{low: low}
	if low >= 2 {
		c.bloom = newBloom(expectedOcc)
		// Most k-mers are singletons at the counting stage (sequencing
		// errors); the admitted set is far smaller than the occurrence count.
		c.table = NewCountTable(expectedOcc / 4)
	} else {
		c.table = NewCountTable(expectedOcc)
	}
	return c
}

// observe runs phase 1 (admission) over one received part; parts may be
// observed in any order (see the file comment for why selection stays
// order-invariant).
func (c *counter) observe(part []uint64) {
	if c.bloom == nil {
		for _, w := range part {
			c.table.Admit(Kmer(w))
		}
		return
	}
	for _, w := range part {
		km := Kmer(w)
		if c.bloom.testAndSet(tableHash(km)) {
			c.table.Admit(km)
		}
	}
}

// tally runs phase 2 (exact counting) over one part; CountAndBuild tallies
// the retained parts in rank order in both comm modes.
func (c *counter) tally(part []uint64) {
	for _, w := range part {
		c.table.AddIfPresent(Kmer(w))
	}
}

// CountOccurrences is the two-phase Bloom-filtered counting kernel over
// complete occurrence parts (packed canonical k-mers): k-mers seen once never
// enter the table when low ≥ 2, and every stored count is exact. It returns
// the same reliable selection as the map-based reference for any low ≥ 1
// (when low < 2 the filter is bypassed so singletons are counted too).
func CountOccurrences(parts [][]uint64, low int32) *CountTable {
	var occ int
	for _, p := range parts {
		occ += len(p)
	}
	c := newCounter(low, occ)
	for _, p := range parts {
		c.observe(p)
	}
	for _, p := range parts {
		c.tally(p)
	}
	return c.table
}
