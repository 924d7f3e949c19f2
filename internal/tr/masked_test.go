package tr

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bidir"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// pathMin records, per composed direction, the least overhang over all
// two-edge walks between a vertex pair: the full four-direction value N held
// before Reduce kept only the direction its verdict reads.
type pathMin [4]int32

// pathSemiring composes edges u→v and v→w of S's packed view into candidate
// u→w walks of every direction; walks whose directions do not compose are
// annihilated.
var pathSemiring = spmat.Semiring[packed, packed, pathMin]{
	Fold: func(acc *spmat.Acc[pathMin], rows []int32, vals []packed, rowLo int32, e2 packed) {
		for i, r := range rows {
			d, ok := bidir.ComposeDirs(vals[i].dir(), e2.dir())
			if !ok {
				continue
			}
			suf := vals[i].suf() + e2.suf()
			if c, live := acc.Slot(r - rowLo); live {
				c[d] = min(c[d], suf)
			} else {
				*c = pathMin{inf, inf, inf, inf}
				c[d] = suf
				acc.Claim(r - rowLo)
			}
		}
	},
	Add: func(a, b pathMin) pathMin {
		for i := range a {
			a[i] = min(a[i], b[i])
		}
		return a
	},
}

// reduceRef is Reduce as it was before the pattern mask: all of N = S ⊗ S is
// formed over every direction, indexed in a hash map and looked up per edge,
// and the verdicts are a kill set keyed by (row, col), with the mirrors
// routed by a world all-to-all. It multiplies the same packed view of S, so
// its panels move the same bytes. Kept as the oracle for the masked,
// merge-joined Reduce.
func reduceRef(s *spmat.Dist[bidir.Edge], fuzz int32, maxIter int) Stats {
	g := s.G
	key := func(r, c int32) int64 { return int64(r)<<32 | int64(uint32(c)) }
	type pair struct{ R, C int32 }
	var st Stats
	for iter := 0; iter < maxIter; iter++ {
		st.Iterations = iter + 1
		view := packView(s, make([]spmat.Triple[packed], len(s.Local.Ts)))
		n := spmat.SpGEMMCounted(view, view, pathSemiring, spmat.Mask{}, &st.Products)
		paths := make(map[int64]pathMin, n.Local.Nnz())
		for _, t := range n.Local.Ts {
			paths[key(t.Row, t.Col)] = t.Val
		}
		kill := map[int64]bool{}
		send := make([][]pair, g.Comm.Size())
		for _, t := range s.Local.Ts {
			pm, ok := paths[key(t.Row, t.Col)]
			if !ok {
				continue
			}
			if m := pm[t.Val.Dir]; m < inf && m <= t.Val.Suf+fuzz {
				kill[key(t.Row, t.Col)] = true
				o := g.BlockOwnerRank(int(s.NR), int(s.NC), int(t.Col), int(t.Row))
				send[o] = append(send[o], pair{t.Col, t.Row})
			}
		}
		for _, part := range mpi.Alltoallv(g.Comm, send) {
			for _, m := range part {
				kill[key(m.R, m.C)] = true
			}
		}
		before := int64(s.Local.Nnz())
		s.Apply(func(r, c int32, v bidir.Edge) (bidir.Edge, bool) { return v, !kill[key(r, c)] })
		removed := mpi.Allreduce(g.Comm, before-int64(s.Local.Nnz()), func(a, b int64) int64 { return a + b })
		st.EdgesRemoved += removed
		if removed == 0 {
			break
		}
	}
	return st
}

// randomSymmetricGraph draws a graph with a symmetric pattern and arbitrary
// edge payloads, overhangs in [1, top]: dense enough that most vertex pairs
// have two-edge walks between them but no edge — the cells the mask skips.
func randomSymmetricGraph(rng *rand.Rand, n int, density float64, top int32) []spmat.Triple[bidir.Edge] {
	edge := func() bidir.Edge {
		return bidir.Edge{Dir: uint8(rng.Intn(4)), Suf: int32(1 + rng.Intn(int(top))), Pre: int32(rng.Intn(100)), Post: int32(rng.Intn(100))}
	}
	var ts []spmat.Triple[bidir.Edge]
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			if rng.Float64() < density {
				ts = append(ts,
					spmat.Triple[bidir.Edge]{Row: int32(u), Col: int32(w), Val: edge()},
					spmat.Triple[bidir.Edge]{Row: int32(w), Col: int32(u), Val: edge()})
			}
		}
	}
	return ts
}

func TestMaskedReduceMatchesUnmasked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 7; trial++ {
		n := 20 + rng.Intn(60)
		top := int32(60)
		if trial == 6 {
			top = 1 << 29 // two packed overhangs sum up to inf
		}
		all := randomSymmetricGraph(rng, n, 0.08+0.25*rng.Float64(), top)
		if trial == 6 {
			// Walks of two overhangs at 2^29 reach inf exactly, and edges
			// at the packing bound, inf-1, are within fuzz of them: only
			// the "no path" test keeps such an edge.
			for i := 0; i+2 < len(all); i += 4 {
				all[i].Val.Suf, all[i+2].Val.Suf = top, inf-1
			}
		}
		fuzz := int32(rng.Intn(100))
		maxIter := 1 + rng.Intn(4)
		for _, p := range []int{1, 4, 9, 16} {
			for _, async := range []bool{false, true} {
				t.Run(fmt.Sprintf("trial=%d/P=%d/async=%v", trial, p, async), func(t *testing.T) {
					err := mpi.Run(p, func(c *mpi.Comm) {
						g := grid.New(c)
						ref := spmat.FromGlobalTriples(g, int32(n), int32(n), all, nil)
						s := ref.Clone()
						b0, m0 := c.BytesSent(), c.MsgsSent()
						want := reduceRef(ref, fuzz, maxIter)
						b1, m1 := c.BytesSent(), c.MsgsSent()
						got := Reduce(s, fuzz, maxIter, async)
						b2, m2 := c.BytesSent(), c.MsgsSent()
						if got.Iterations != want.Iterations || got.EdgesRemoved != want.EdgesRemoved {
							panic(fmt.Sprintf("masked %+v, unmasked %+v", got, want))
						}
						// The mirrors move the same bytes, but to the
						// transposed rank alone: one message per iteration
						// off the diagonal, none on it, where the all-to-all
						// sends P-1.
						fewer := int64(p - 1)
						if g.Row != g.Col {
							fewer--
						}
						if b2-b1 != b1-b0 || (m1-m0)-(m2-m1) != int64(got.Iterations)*fewer {
							panic(fmt.Sprintf("rank %d: Reduce sent %d B in %d messages, the reference %d B in %d; want %d fewer messages",
								c.Rank(), b2-b1, m2-m1, b1-b0, m1-m0, int64(got.Iterations)*fewer))
						}
						if got.Products > want.Products {
							panic(fmt.Sprintf("the mask added products: %d > %d", got.Products, want.Products))
						}
						if !reflect.DeepEqual(s.Local.Ts, ref.Local.Ts) {
							panic(fmt.Sprintf("rank %d: reduced blocks differ", c.Rank()))
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
