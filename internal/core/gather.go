package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/mpi"
	"repro/internal/mpi/wire"
)

// GatherContigs collects every rank's contigs at root (nil elsewhere),
// sorted deterministically by (length desc, sequence) so the result is
// independent of the processor count (collective). A contig has no fixed
// width, so every other rank's contigs travel as one wire frame of bytes,
// which the gather chunks under mpi.MaxMessageBytes.
func GatherContigs(c *mpi.Comm, contigs []Contig) []Contig {
	var mine []byte
	if c.Rank() != 0 {
		mine = wire.Marshal(contigs)
	}
	parts := mpi.Gatherv(c, 0, mine)
	if c.Rank() != 0 {
		return nil
	}
	all := slices.Clone(contigs)
	for r, part := range parts[1:] {
		theirs, err := wire.Unmarshal[Contig](part)
		if err != nil {
			panic(fmt.Sprintf("core: contigs of rank %d: %v", r+1, err))
		}
		all = append(all, theirs...)
	}
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
