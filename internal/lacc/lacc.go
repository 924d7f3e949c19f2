// Package lacc implements distributed connected components in the style of
// LACC (Azad & Buluç, IPDPS 2019): the Awerbuch–Shiloach algorithm expressed
// over the distributed graph with a block-distributed parent vector —
// conditional star hooking onto smaller neighbors, star detection, and
// pointer-jumping shortcuts, iterated until the parent vector stabilizes
// (O(log n) rounds). ELBA uses it to decompose the branch-masked string
// matrix L into its linear components (Algorithm 2 line 3).
//
// Parent values travel with the same communication patterns the rest of the
// pipeline uses: the Figure 2 row-allgather + transposed exchange supplies
// the endpoints of local edges, and owner-routed fetch/scatter collectives
// chase and write parent pointers.
package lacc

import (
	"repro/internal/bidir"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// Components labels every vertex of the symmetric graph l with its
// component: the returned distributed vector maps vertex → smallest vertex
// id in its component (collective). Isolated vertices label themselves.
func Components(l *spmat.Dist[bidir.Edge]) *spmat.DistVec[int32] {
	g := l.G
	n := int(l.NR)
	f := spmat.NewDistVec[int32](g, n)
	for i := range f.Local {
		f.Local[i] = f.Lo + int32(i)
	}
	for iter := 0; ; iter++ {
		changed := hookAndShortcut(g, l, f)
		if !mpi.Allreduce(g.Comm, changed, func(a, b bool) bool { return a || b }) {
			break
		}
		if iter > 64 {
			panic("lacc: failed to converge (graph corrupt?)")
		}
	}
	return f
}

// noParent marks "no neighbor": larger than any vertex id.
const noParent = int32(1<<31 - 1)

// minNeighborSemiring implements the hooking SpMV: y_u = min over neighbors
// v of f[v] (the select2nd/min semiring of LACC).
var minNeighborSemiring = spmat.Semiring[bidir.Edge, int32, int32]{
	Fold: func(acc *spmat.Acc[int32], rows []int32, _ []bidir.Edge, rowLo int32, fv int32) {
		for _, r := range rows {
			if c, live := acc.Slot(r - rowLo); live {
				*c = min32(*c, fv)
			} else {
				*c = fv
				acc.Claim(r - rowLo)
			}
		}
	},
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// hookAndShortcut performs one Awerbuch–Shiloach round; reports whether any
// parent changed on this rank.
func hookAndShortcut(g *grid.Grid, l *spmat.Dist[bidir.Edge], f *spmat.DistVec[int32]) bool {
	star := computeStars(g, f)

	// Conditional star hooking, in the language of linear algebra: one SpMV
	// under the (select2nd, min) semiring yields each vertex's smallest
	// neighboring parent; star members with a smaller neighbor propose that
	// value to their root (an owner-routed scatter-min, LACC's hooking
	// write).
	minN := spmat.SpMV(l, f, minNeighborSemiring, noParent, min32)
	var hookIdx, hookVal []int32
	for i, fu := range f.Local {
		if star.Local[i] && minN.Local[i] < fu {
			hookIdx = append(hookIdx, fu)
			hookVal = append(hookVal, minN.Local[i])
		}
	}
	old := make([]int32, len(f.Local))
	copy(old, f.Local)
	spmat.ScatterMin(f, hookIdx, hookVal)

	// Shortcut: f[v] = f[f[v]] (pointer jumping).
	parents := f.Fetch(f.Local)
	copy(f.Local, parents)

	changed := false
	for i := range f.Local {
		if f.Local[i] != old[i] {
			changed = true
			break
		}
	}
	return changed
}

// computeStars returns the star flags of Awerbuch–Shiloach: star[v] is true
// iff v belongs to a depth-1 tree. Three passes:
//  1. star[v] = (f[f[v]] == f[v]);
//  2. a vertex with a grandparent ≠ parent also un-stars its grandparent;
//  3. star[v] = star[f[v]] (children inherit the root's flag).
func computeStars(g *grid.Grid, f *spmat.DistVec[int32]) *spmat.DistVec[bool] {
	star := spmat.NewDistVec[bool](g, f.N)
	grand := f.Fetch(f.Local) // f[f[v]] for local v
	var unstarIdx []int32
	var unstarVal []bool
	for i := range f.Local {
		star.Local[i] = grand[i] == f.Local[i]
		if grand[i] != f.Local[i] {
			unstarIdx = append(unstarIdx, grand[i])
			unstarVal = append(unstarVal, false)
		}
	}
	spmat.ScatterBoolAnd(star, unstarIdx, unstarVal)
	// Children inherit the parent's (root's) flag.
	parentStar := star.Fetch(f.Local)
	copy(star.Local, parentStar)
	return star
}
