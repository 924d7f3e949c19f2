package kmer

import "slices"

// countOccurrencesMap is the map-based counting kernel CountOccurrences
// replaced, kept as the oracle of the differential tests in count_test.go.
func countOccurrencesMap(parts [][]uint64) map[Kmer]int32 {
	counts := make(map[Kmer]int32)
	for _, p := range parts {
		for _, w := range p {
			counts[Kmer(w)]++
		}
	}
	return counts
}

// wordRuns encodes occurrence parts of canonical k-mer words as run parts,
// each k-mer its own run of one, all of read 0 at consecutive positions: the
// parts the counter expands back to the same k-mers in the same order.
func wordRuns(parts [][]uint64, k int) [][]byte {
	runs := make([][]byte, len(parts))
	for r, part := range parts {
		for i, w := range part {
			dread := uint64(0) // the same read as the record before
			if i == 0 {
				dread = 1 // read 0, one after the part's lo−1
			}
			runs[r] = appendRun(runs[r], dread, 0, Decode(Kmer(w), k), 1)
		}
	}
	return runs
}

// reliableOf returns, sorted, the k-mers MarkReliable marks reliable in a
// copy of t — the selection the column index numbers — leaving t's counts
// intact, in the shape of the map reference SelectReliable.
func reliableOf(t *CountTable, low, high int32) []Kmer {
	cp := *t
	cp.entries = slices.Clone(t.entries)
	out := make([]Kmer, 0, cp.MarkReliable(low, high))
	for _, e := range cp.entries {
		if e.km != emptyKmer && e.val == unnumbered {
			out = append(out, e.km)
		}
	}
	slices.Sort(out)
	return out
}

// Get returns km's value and whether the table holds it — the tests' view of
// a table's counts.
func (t *CountTable) Get(km Kmer) (int32, bool) {
	if e := t.entries[t.slot(km)]; e.km == km {
		return e.val, true
	}
	return 0, false
}

// firstAppearanceColumns is the reference numbering of CountAndBuild's
// columns at p ranks: owner o's reliable k-mers take the ids
// [offset_o, offset_o+n_o), offset_o the count of reliable k-mers on owners
// below o, in order of first appearance along the reads — global read order,
// then extraction order. It maps every reliable k-mer to its id.
func firstAppearanceColumns(reads [][]byte, k int, low, high int32, p int) map[Kmer]int32 {
	reliable := map[Kmer]bool{}
	for _, km := range SelectReliable(CountSerial(reads, k), low, high) {
		reliable[km] = true
	}
	next := make([]int32, p)
	for km := range reliable {
		for o := Owner(km, k, p) + 1; o < p; o++ {
			next[o]++
		}
	}
	want := map[Kmer]int32{}
	for _, seq := range reads {
		for _, kp := range Extract(seq, k) {
			if _, seen := want[kp.Kmer]; reliable[kp.Kmer] && !seen {
				o := Owner(kp.Kmer, k, p)
				want[kp.Kmer] = next[o]
				next[o]++
			}
		}
	}
	return want
}

// firstAppearanceTriples is the serial reference of CountAndBuild's output
// over all ranks: every occurrence of a reliable k-mer, numbered by cols
// (firstAppearanceColumns), in read order, then extraction order — no sort.
func firstAppearanceTriples(reads [][]byte, k int, cols map[Kmer]int32) []ATriple {
	triples := []ATriple{}
	for r, seq := range reads {
		for _, kp := range Extract(seq, k) {
			if col, ok := cols[kp.Kmer]; ok {
				triples = append(triples, ATriple{Row: int32(r), Col: col, Val: MakeOccur(kp.Pos, kp.RC)})
			}
		}
	}
	return triples
}
