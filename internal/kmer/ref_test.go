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
