package overlap

import (
	"testing"

	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/readsim"
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
			var products int64
			err := mpi.Run(4, func(c *mpi.Comm) {
				g := grid.New(c)
				store := fasta.FromGlobal(c, reads)
				res := &Result{NumReads: store.N}
				kres := kmer.CountAndBuild(store, 31, 2, 160, 1)
				// Every rank has finished counting before the reset and
				// starts the timed loop after it, so the timer and the
				// -benchmem counters see all four ranks' loops and nothing
				// of the counting.
				mpi.Barrier(c)
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				mpi.Barrier(c)
				var mine int64
				mpitest.InMode(c, sched.async, func() {
					for i := 0; i < b.N; i++ {
						_, n := DetectCandidates(g, store, kres, res)
						mine += n
					}
				})
				total := mpi.Allreduce(c, mine, func(x, y int64) int64 { return x + y })
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
