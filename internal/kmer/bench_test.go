package kmer

import (
	"fmt"
	"testing"

	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
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
// two-phase scheme) on the occurrence stream CountAndBuild routes at P=1.
func BenchmarkCountOccurrences(b *testing.B) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 50000, Seed: 2})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 10, MeanLen: 3000, Seed: 3}))
	var occs []uint64
	var sc ExtractScratch
	for _, r := range reads {
		for _, kp := range sc.ExtractInto(r, 31) {
			occs = append(occs, uint64(kp.Kmer))
		}
	}
	parts := [][]uint64{occs}
	b.Run("bloom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CountOccurrences(parts, 2)
		}
	})
}

// BenchmarkCountAndBuildDistributed runs the whole counting stage on
// error-free depth-10 reads (P=1, 4, 16) and on the same genome at 3% error
// (err=0.03/P=4), where most k-mers are singletons the Bloom filter keeps out
// of the count table, so the table's sizing shows.
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
						CountAndBuild(store, 31, 2, 100, 1)
					}
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
