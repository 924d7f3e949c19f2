package spmat

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi/mpitest"
)

// TestSpGEMMAsyncMatchesBlocking: the IBcast prefetch pipeline must produce
// the same product, the same work counter, and the same traffic on a
// nonblocking rank as on a blocking one, on every grid size.
func TestSpGEMMAsyncMatchesBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	aT := globalTriples(rng, 33, 29, 0.15)
	bT := globalTriples(rng, 29, 31, 0.15)
	runGrid(t, func(g *grid.Grid) {
		a := FromGlobalTriples(g, 33, 29, aT, nil)
		b := FromGlobalTriples(g, 29, 31, bT, nil)

		var prodSync, prodAsync int64
		var cs, ca *Dist[int64]
		syncBefore := g.Comm.BytesSent()
		mpitest.InMode(g.Comm, false, func() { cs = SpGEMMCounted(a, b, plusTimes, Mask{}, &prodSync) })
		bytesBefore := g.Comm.BytesSent()
		asyncBefore := g.Comm.BytesAsync()
		mpitest.InMode(g.Comm, true, func() { ca = SpGEMMCounted(a, b, plusTimes, Mask{}, &prodAsync) })
		asyncSent := g.Comm.BytesAsync() - asyncBefore
		totalSent := g.Comm.BytesSent() - bytesBefore

		if prodSync != prodAsync {
			panic("async SUMMA computed a different product count")
		}
		if asyncBefore != 0 || bytesBefore-syncBefore != totalSent {
			panic("blocking SUMMA counted overlappable bytes or sent a different total")
		}
		gs := cs.GatherTriples(0)
		ga := ca.GatherTriples(0)
		if g.Comm.Rank() == 0 && !reflect.DeepEqual(gs, ga) {
			panic("async SUMMA product differs from blocking product")
		}
		// Every SUMMA byte of the async run travelled through the
		// nonblocking layer (GatherTriples excluded from the window).
		if asyncSent != totalSent {
			panic("async SUMMA sent bytes outside the nonblocking layer")
		}
	})
}
