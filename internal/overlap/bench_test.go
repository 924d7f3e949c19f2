package overlap

import (
	"testing"

	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/readsim"
	"repro/internal/trace"
)

// BenchmarkDetectCandidates times the DetectOverlap stage alone — A, Aᵀ and
// the masked C = A·Aᵀ — on the root suite's bench-scale C. elegans-like
// dataset at P=4, under both schedules, and reports the semiring products the
// stage evaluates (summed over ranks; schedule-invariant) and its product
// rate. K-mer counting runs once, outside the timer.
func BenchmarkDetectCandidates(b *testing.B) {
	reads := readsim.Seqs(readsim.Generate(readsim.CElegansLike, 60000, 97).Reads)
	for _, sched := range []struct {
		name  string
		async bool
	}{{"sync", false}, {"async", true}} {
		b.Run(sched.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := Config{K: 31, ReliableLow: 2, ReliableHigh: 160}
			var products int64
			err := mpi.Run(4, func(c *mpi.Comm) {
				g := grid.New(c)
				store := fasta.FromGlobal(c, reads)
				tm := trace.New()
				res := &Result{NumReads: store.N}
				kres := CountKmers(g, store, cfg, tm, res)
				mpi.Barrier(c)
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				mpitest.InMode(c, sched.async, func() {
					for i := 0; i < b.N; i++ {
						DetectCandidates(g, store, kres, cfg, tm, res)
					}
				})
				total := mpi.Allreduce(c, tm.Entry("DetectOverlap").Work, func(x, y int64) int64 { return x + y })
				if c.Rank() == 0 {
					b.StopTimer()
					products = total
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(products)/float64(b.N), "products/op")
			b.ReportMetric(float64(products)/1e6/b.Elapsed().Seconds(), "Mproducts/s")
		})
	}
}
