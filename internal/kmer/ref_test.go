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

// reliableOf returns, sorted, the k-mers MarkReliable marks reliable in a
// copy of t — the selection the column index numbers — leaving t's counts
// intact, in the shape of the map reference SelectReliable.
func reliableOf(t *CountTable, low, high int32) []Kmer {
	cp := *t
	cp.vals = slices.Clone(t.vals)
	out := make([]Kmer, 0, cp.MarkReliable(low, high))
	for i, km := range cp.kms {
		if km != emptyKmer && cp.vals[i] == unnumbered {
			out = append(out, km)
		}
	}
	slices.Sort(out)
	return out
}

// assembleSorted is the triple assembly assembleRowMajor replaced — every
// survivor appended in reply order, then one comparator sort by (Row, Col) —
// kept as the oracle of TestAssembleRowMajorMatchesComparatorSort.
func assembleSorted(meta [][]occRec, cols [][]int32) []ATriple {
	triples := []ATriple{}
	for r := range cols {
		for i, col := range cols[r] {
			if col >= 0 {
				triples = append(triples, ATriple{Row: meta[r][i].Read, Col: col, Val: meta[r][i].Occ})
			}
		}
	}
	slices.SortFunc(triples, func(a, b ATriple) int {
		if a.Row != b.Row {
			return int(a.Row - b.Row)
		}
		return int(a.Col - b.Col)
	})
	return triples
}
