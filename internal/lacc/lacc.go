// Package lacc implements distributed connected components with FastSV
// (Zhang, Azad & Hu, SIAM PP 2020), the successor of LACC (Azad & Buluç,
// IPDPS 2019) from the same group: Shiloach–Vishkin hooking and shortcutting
// over a block-distributed parent vector f and its grandparent vector
// gf = f∘f, expressed in the language of linear algebra and iterated until
// gf stops changing. There is no star detection. ELBA uses it to decompose
// the branch-masked string matrix L into its linear components (Algorithm 2
// line 3).
//
// Parent values travel with the same communication patterns the rest of the
// pipeline uses: the Figure 2 row-allgather + transposed exchange supplies
// the endpoints of local edges to the SpMV, and owner-routed scatter-min and
// fetch collectives write and chase parent pointers.
package lacc

import (
	"fmt"
	"slices"

	"repro/internal/bidir"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/spmat"
)

// maxRounds bounds the rounds of a valid graph with room to spare: FastSV
// converges in O(log n) rounds.
const maxRounds = 64

// Components labels every vertex of the symmetric graph l with its
// component: the returned distributed vector maps vertex → smallest vertex
// id in its component (collective). Isolated vertices label themselves.
//
// Each round of FastSV takes four steps:
//  1. mngf = SpMV(l, gf): each vertex's smallest neighbouring grandparent;
//  2. stochastic hooking: f[f[u]] = min(f[f[u]], mngf[u]), an owner-routed
//     scatter-min. Only u with mngf[u] < gf[u] propose: f[f[u]] == gf[u] at
//     the start of every round, so no other proposal can lower a parent;
//  3. aggressive hooking and shortcutting: f[u] = min(f[u], mngf[u], gf[u]);
//  4. gf = f[f], one fetch; the loop ends when no rank's gf changed (one
//     Allreduce).
//
// That is three exchanges per round plus the SpMV's. Why the labels are
// the component minima: every update is a minimum, so f[v] ≤ v always
// holds, and every f[v] lies in v's component. In a round where gf does
// not change, gf[u] = f[f[u]] ≤ f[u] ≤ gf[u] after step 3, so f = f∘f:
// every tree is a star. Step 3 also gives mngf[u] ≥ f[u] = gf[u] on every
// vertex, so both ends of an edge have the same root: each component is
// one star. Its root is its smallest vertex, since the root is at most
// every member and is a member.
//
// Each round is a lacc.round span on the rank's lane (hooks = proposals
// sent); rank 0 adds the round count to the lacc.rounds counter.
func Components(l *spmat.Dist[bidir.Edge]) *spmat.DistVec[int32] {
	g := l.G
	f := spmat.NewDistVec[int32](g, int(l.NR))
	for i := range f.Local {
		f.Local[i] = f.Lo + int32(i)
	}
	gf := spmat.NewDistVec[int32](g, f.N)
	copy(gf.Local, f.Local) // the identity is its own grandparent
	lane := g.Comm.Lane()
	var hookIdx, hookVal []int32
	rounds := 0
	for changed := true; changed; rounds++ {
		if rounds == maxRounds {
			panic(fmt.Sprintf("lacc: no convergence in %d rounds (graph corrupt?)", maxRounds))
		}
		start := lane.Start()
		mngf := spmat.SpMV(l, gf, minNeighborSemiring, noParent, func(a, b int32) int32 { return min(a, b) })
		hookIdx, hookVal = hookIdx[:0], hookVal[:0]
		for i, m := range mngf.Local {
			if m < gf.Local[i] {
				hookIdx = append(hookIdx, f.Local[i])
				hookVal = append(hookVal, m)
			}
		}
		spmat.ScatterMin(f, hookIdx, hookVal)
		for i, fu := range f.Local {
			f.Local[i] = min(fu, mngf.Local[i], gf.Local[i])
		}
		next := f.Fetch(f.Local)
		changed = !slices.Equal(next, gf.Local)
		gf.Local = next
		lane.Span(0, "lacc", "lacc.round", start, obs.Arg{K: "hooks", V: int64(len(hookIdx))})
		changed = mpi.Allreduce(g.Comm, changed, func(a, b bool) bool { return a || b })
	}
	if g.Comm.Rank() == 0 { // every rank counts the same rounds
		g.Comm.Metrics().Counter("lacc.rounds").Add(int64(rounds))
	}
	return f
}

// noParent marks "no neighbor": larger than any vertex id.
const noParent = int32(1<<31 - 1)

// minNeighborSemiring implements the hooking SpMV: y_u = min over neighbors
// v of x[v] (the select2nd/min semiring of LACC and FastSV).
var minNeighborSemiring = spmat.Semiring[bidir.Edge, int32, int32]{
	Fold: func(acc *spmat.Acc[int32], rows []int32, _ []bidir.Edge, rowLo int32, xv int32) {
		for _, r := range rows {
			if c, live := acc.Slot(r - rowLo); live {
				*c = min(*c, xv)
			} else {
				*c = xv
				acc.Claim(r - rowLo)
			}
		}
	},
}
