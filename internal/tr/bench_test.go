package tr

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/spmat"
)

// BenchmarkReduce times Reduce on a chain graph and reports, summed over
// ranks, the semiring products it evaluates, the Fold calls that formed them
// (spmat.fold_calls) and the bytes it sends per op: all are
// host-independent, so CI pins them.
func BenchmarkReduce(b *testing.B) {
	// 600 reads with skip edges up to span 4 — the post-alignment shape.
	n := 600
	all := chainGraph(n, 100, 20)
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var products, calls, bytes int64
			w := mpi.NewWorld(p)
			w.SetObs(nil, obs.NewMetricSet(p))
			err := w.Run(func(c *mpi.Comm) {
				g := grid.New(c)
				var mine int64
				folds := c.Metrics().Counter("spmat.fold_calls")
				made, sent := folds.Value(), c.BytesSent()
				for i := 0; i < b.N; i++ {
					s := spmat.FromGlobalTriples(g, int32(n), int32(n), all, nil)
					mine += Reduce(s, 0, 10, false).Products
				}
				made, sent = folds.Value()-made, c.BytesSent()-sent
				sum := func(x, y int64) int64 { return x + y }
				mine, made, sent = mpi.Allreduce(c, mine, sum), mpi.Allreduce(c, made, sum), mpi.Allreduce(c, sent, sum)
				if c.Rank() == 0 {
					products, calls, bytes = mine, made, sent
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(products)/float64(b.N), "products/op")
			b.ReportMetric(float64(calls)/float64(b.N), "fold_calls/op")
			b.ReportMetric(float64(bytes)/float64(b.N), "comm_bytes")
		})
	}
}
