package kmer

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
