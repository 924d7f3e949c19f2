package spmat

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
)

// TestSpGEMMAsyncMatchesBlocking: the IBcast prefetch pipeline must produce
// the same product, the same work counter, and the same traffic as the
// blocking SUMMA on every grid size.
func TestSpGEMMAsyncMatchesBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	aT := globalTriples(rng, 33, 29, 0.15)
	bT := globalTriples(rng, 29, 31, 0.15)
	runGrid(t, func(g *grid.Grid) {
		a := FromGlobalTriples(g, 33, 29, aT, nil)
		b := FromGlobalTriples(g, 29, 31, bT, nil)

		var prodSync, prodAsync int64
		cs := SpGEMMCounted(a, b, plusTimes, Mask{}, &prodSync)
		bytesBefore := g.Comm.BytesSent()
		asyncBefore := g.Comm.BytesAsync()
		ca := SpGEMMAsync(a, b, plusTimes, Mask{}, &prodAsync)
		asyncSent := g.Comm.BytesAsync() - asyncBefore
		totalSent := g.Comm.BytesSent() - bytesBefore

		if prodSync != prodAsync {
			panic("async SUMMA computed a different product count")
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
