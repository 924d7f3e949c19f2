package tr

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// BenchmarkReduce times Reduce on a chain graph and reports, summed over
// ranks, the semiring products it evaluates and the bytes it sends per op:
// both are host-independent, so CI pins them.
func BenchmarkReduce(b *testing.B) {
	// 600 reads with skip edges up to span 4 — the post-alignment shape.
	n := 600
	all := chainGraph(n, 100, 20)
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var products, bytes int64
			err := mpi.Run(p, func(c *mpi.Comm) {
				g := grid.New(c)
				var mine int64
				sent := c.BytesSent()
				for i := 0; i < b.N; i++ {
					s := spmat.FromGlobalTriples(g, int32(n), int32(n), all, nil)
					mine += Reduce(s, 0, 10, false).Products
				}
				sent = c.BytesSent() - sent
				sum := func(x, y int64) int64 { return x + y }
				mine, sent = mpi.Allreduce(c, mine, sum), mpi.Allreduce(c, sent, sum)
				if c.Rank() == 0 {
					products, bytes = mine, sent
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(products)/float64(b.N), "products/op")
			b.ReportMetric(float64(bytes)/float64(b.N), "comm_bytes")
		})
	}
}
