package kmer

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/par"
	"repro/internal/readsim"
)

func BenchmarkExtract(b *testing.B) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 100000, Seed: 1})
	for _, k := range []int{17, 31} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(g)))
			for i := 0; i < b.N; i++ {
				Extract(g, k)
			}
		})
	}
}

// BenchmarkExtractInto is the scratch-reusing scan the pool workers and
// CountSerial run: steady-state it must not allocate at all.
func BenchmarkExtractInto(b *testing.B) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 100000, Seed: 1})
	var sc ExtractScratch
	sc.ExtractInto(g, 31) // warm the scratch
	b.ReportAllocs()
	b.SetBytes(int64(len(g)))
	for i := 0; i < b.N; i++ {
		sc.ExtractInto(g, 31)
	}
}

func BenchmarkCountSerial(b *testing.B) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 50000, Seed: 2})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 10, MeanLen: 3000, Seed: 3}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountSerial(reads, 31)
	}
}

// BenchmarkCountOccurrences is the owner-side counting kernel (blocked-Bloom
// two-phase scheme) on the run part CountAndBuild routes at P=1.
func BenchmarkCountOccurrences(b *testing.B) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 50000, Seed: 2})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 10, MeanLen: 3000, Seed: 3}))
	s := extract(par.NewPool(1, func(int) *ExtractScratch { return new(ExtractScratch) }), reads, 31, 1)
	parts := [][]byte{s.route(reads, 0, 31, 1)[0].Elems()}
	b.Run("bloom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CountOccurrences(parts, 31, 2)
		}
	})
}

// BenchmarkCountAndBuildDistributed runs the whole counting stage (Count,
// which leaves A's columns on the owners; CountAndBuild's reply and emit are
// ledger code) on error-free depth-10 reads (P=1, 4, 16) and on the same
// genome at 3% error (err=0.03/P=4), where most k-mers are singletons the
// Bloom filter keeps out of the count table, so the table's sizing shows.
func BenchmarkCountAndBuildDistributed(b *testing.B) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 50000, Seed: 4})
	clean := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 10, MeanLen: 3000, Seed: 5}))
	noisy := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 10, MeanLen: 3000, ErrorRate: 0.03, Seed: 5}))
	for _, run := range []struct {
		name  string
		reads [][]byte
		p     int
	}{
		{"P=1", clean, 1}, {"P=4", clean, 4}, {"P=16", clean, 16}, {"err=0.03/P=4", noisy, 4},
	} {
		b.Run(run.name, func(b *testing.B) {
			b.ReportAllocs()
			err := mpi.Run(run.p, func(c *mpi.Comm) {
				store := fasta.FromGlobal(c, run.reads)
				mpitest.InMode(c, false, func() {
					for i := 0; i < b.N; i++ {
						Count(store, 31, 2, 100, 1)
					}
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestCountAndBuildAllocationBudget bounds what the counting stage (Count,
// the production path; CountAndBuild adds the reply and emit of the ledger)
// allocates at P = 4 in units of 12 bytes per occurrence — what an
// occurrence cost on the wire when it travelled as an 8-byte k-mer word and
// came back as a 4-byte column id. The stream (6 bytes per window: position
// and strand, owner), the run parts (about 1.4 bytes per occurrence), the
// numbered records (4), the count table (16 bytes a slot) and Bloom filter,
// and the owners' columns (8 per survivor: read and Occur) come to 2.85 × in
// all. The budget is 3.1 ×: a stream that kept its k-mer words again (8
// bytes more per window, 3.5 ×), or the columns held as triples as well
// (12 more per survivor, 3.8 ×), fails it.
func TestCountAndBuildAllocationBudget(t *testing.T) {
	const budget = 3.1
	g := readsim.Genome(readsim.GenomeConfig{Length: 50000, Seed: 4})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 10, MeanLen: 3000, Seed: 5}))
	var allocated uint64
	var unit int64 // 12 bytes per occurrence
	err := mpi.Run(4, func(c *mpi.Comm) {
		store := fasta.FromGlobal(c, reads)
		// Rank 0 reads the process-wide counter between barriers, so the
		// delta is what all four ranks allocated in between.
		var before, after runtime.MemStats
		mpi.Barrier(c)
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		mpi.Barrier(c)
		res := Count(store, 31, 2, 100, 1)
		mpi.Barrier(c)
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		occ := mpi.Allreduce(c, res.Occurrences, func(a, b int64) int64 { return a + b })
		if c.Rank() == 0 {
			allocated, unit = after.TotalAlloc-before.TotalAlloc, 12*occ
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("allocated %d bytes for %d occurrences (%.2f × 12 bytes each; budget %.1f ×)", allocated, unit/12, float64(allocated)/float64(unit), budget)
	if float64(allocated) > budget*float64(unit) {
		t.Fatalf("Count allocated %d bytes, budget %.0f", allocated, budget*float64(unit))
	}
}
