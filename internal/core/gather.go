package core

import (
	"slices"
	"sort"

	"repro/internal/mpi"
)

// GatherContigs collects every rank's contigs at root (nil elsewhere),
// sorted deterministically by (length desc, sequence) so the result is
// independent of the processor count (collective). It gives contigs away
// (mpi.Gatherv); the result is a fresh slice.
func GatherContigs(c *mpi.Comm, contigs []Contig) []Contig {
	parts := mpi.Gatherv(c, 0, contigs)
	if c.Rank() != 0 {
		return nil
	}
	all := slices.Concat(parts...)
	SortContigs(all)
	return all
}

// SortContigs orders contigs by (length desc, sequence asc) — the canonical
// order used for determinism checks and N50-style reporting.
func SortContigs(cs []Contig) {
	sort.Slice(cs, func(i, j int) bool {
		if len(cs[i].Seq) != len(cs[j].Seq) {
			return len(cs[i].Seq) > len(cs[j].Seq)
		}
		return string(cs[i].Seq) < string(cs[j].Seq)
	})
}
