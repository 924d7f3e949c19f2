package lacc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bidir"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/spmat"
)

// unionFind is the sequential reference.
type unionFind struct{ p []int32 }

func newUF(n int) *unionFind {
	u := &unionFind{p: make([]int32, n)}
	for i := range u.p {
		u.p[i] = int32(i)
	}
	return u
}

func (u *unionFind) find(x int32) int32 {
	for u.p[x] != x {
		u.p[x] = u.p[u.p[x]]
		x = u.p[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra < rb {
			u.p[rb] = ra
		} else {
			u.p[ra] = rb
		}
	}
}

// minLabels computes the expected labels: min vertex id per component.
func minLabels(n int, edges [][2]int32) []int32 {
	uf := newUF(n)
	for _, e := range edges {
		uf.union(e[0], e[1])
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = uf.find(int32(i))
	}
	return out
}

// symTriples converts undirected edges to a symmetric Dist-ready triple set.
func symTriples(edges [][2]int32) []spmat.Triple[bidir.Edge] {
	var ts []spmat.Triple[bidir.Edge]
	for _, e := range edges {
		ts = append(ts,
			spmat.Triple[bidir.Edge]{Row: e[0], Col: e[1]},
			spmat.Triple[bidir.Edge]{Row: e[1], Col: e[0]})
	}
	return ts
}

// checkComponents compares Components with the union-find labels at every
// grid size in sizes and returns the largest lacc.rounds rank 0 recorded;
// every other rank must record none.
func checkComponents(t *testing.T, n int, edges [][2]int32, sizes []int) (rounds int64) {
	t.Helper()
	want := minLabels(n, edges)
	ts := symTriples(edges)
	for _, p := range sizes {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			w := mpi.NewWorld(p)
			w.SetObs(nil, obs.NewMetricSet(p))
			err := w.Run(func(c *mpi.Comm) {
				g := grid.New(c)
				l := spmat.FromGlobalTriples(g, int32(n), int32(n), ts, func(a, b bidir.Edge) bidir.Edge { return a })
				v := Components(l)
				got := v.AllgatherFull()
				if !reflect.DeepEqual(got, want) {
					panic(fmt.Sprintf("labels differ\n got %v\nwant %v", got, want))
				}
				r := c.Metrics().Counter("lacc.rounds").Value()
				switch {
				case c.Rank() == 0 && r < 1:
					panic(fmt.Sprintf("rank 0 recorded lacc.rounds = %d", r))
				case c.Rank() != 0 && r != 0:
					panic(fmt.Sprintf("rank %d recorded lacc.rounds = %d, want 0", c.Rank(), r))
				case c.Rank() == 0:
					rounds = max(rounds, r)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	return rounds
}

func TestPaperExample(t *testing.T) {
	// §4.2: chains v1→v2, v4→v5→v6, v7→v8 after masking v3 (0-indexed:
	// 0-1, 3-4-5, 6-7; vertex 2 isolated).
	edges := [][2]int32{{0, 1}, {3, 4}, {4, 5}, {6, 7}}
	checkComponents(t, 9, edges, []int{1, 4, 9})
}

func TestLongChain(t *testing.T) {
	// A single long path: the worst case for label propagation, fine for
	// pointer jumping.
	n := 200
	var edges [][2]int32
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int32{int32(i), int32(i + 1)})
	}
	checkComponents(t, n, edges, []int{1, 4, 16})
}

func TestReversedChain(t *testing.T) {
	// Chain labeled against the hook direction: 199-198-...-0.
	n := 120
	var edges [][2]int32
	for i := n - 1; i > 0; i-- {
		edges = append(edges, [2]int32{int32(i), int32(i - 1)})
	}
	checkComponents(t, n, edges, []int{4, 9})
}

func TestManySmallComponents(t *testing.T) {
	// The contig workload shape: thousands of short linear chains.
	n := 300
	var edges [][2]int32
	for start := 0; start+4 < n; start += 5 {
		for k := 0; k < 4; k++ {
			edges = append(edges, [2]int32{int32(start + k), int32(start + k + 1)})
		}
	}
	checkComponents(t, n, edges, []int{1, 4, 16})
}

func TestRandomGraphsMatchUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		n := rng.Intn(120) + 10
		m := rng.Intn(2 * n)
		seen := map[[2]int32]bool{}
		var edges [][2]int32
		for k := 0; k < m; k++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if seen[[2]int32{a, b}] {
				continue
			}
			seen[[2]int32{a, b}] = true
			edges = append(edges, [2]int32{a, b})
		}
		want := minLabels(n, edges)
		ts := symTriples(edges)
		err := mpi.Run(4, func(c *mpi.Comm) {
			g := grid.New(c)
			l := spmat.FromGlobalTriples(g, int32(n), int32(n), ts, func(a, b bidir.Edge) bidir.Edge { return a })
			v := Components(l)
			got := v.AllgatherFull()
			if !reflect.DeepEqual(got, want) {
				panic(fmt.Sprintf("trial %d labels differ", trial))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRingComponent(t *testing.T) {
	// Cycles (circular contigs) must still form one component.
	n := 50
	var edges [][2]int32
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int32{int32(i), int32((i + 1) % n)})
	}
	checkComponents(t, n, edges, []int{4})
}

func TestEmptyGraphAllSingletons(t *testing.T) {
	checkComponents(t, 17, nil, []int{1, 4})
}

// TestContigShapes runs the shapes contig generation hands to Components
// at every grid size. maxRounds, when set, bounds lacc.rounds.
func TestContigShapes(t *testing.T) {
	// One long chain whose ids follow no order along it, as read ids do
	// along a contig: the slowest shape for hooking onto smaller ids.
	const chainN = 100_000
	perm := rand.New(rand.NewSource(5)).Perm(chainN)
	chain := make([][2]int32, chainN-1)
	for i := range chain {
		chain[i] = [2]int32{int32(perm[i]), int32(perm[i+1])}
	}
	var star, caterpillar, tree, pairs [][2]int32
	for v := 0; v < 299; v++ { // every leaf hooks the hub, the largest id
		star = append(star, [2]int32{299, int32(v)})
	}
	for i := 0; i < 250; i++ { // spine 0..249, the leaf of spine i is 250+i
		caterpillar = append(caterpillar, [2]int32{int32(i), int32(250 + i)})
		if i > 0 {
			caterpillar = append(caterpillar, [2]int32{int32(i - 1), int32(i)})
		}
	}
	for h := 1; h < 511; h++ { // heap order, ids reversed: the root is 510
		tree = append(tree, [2]int32{int32(510 - (h-1)/2), int32(510 - h)})
	}
	for v := 0; v+2 < 600; v += 3 { // pair (v+2, v), then v+1 isolated
		pairs = append(pairs, [2]int32{int32(v + 2), int32(v)})
	}
	for _, tc := range []struct {
		name      string
		n         int
		edges     [][2]int32
		maxRounds int64
	}{
		{"permuted_chain", chainN, chain, 32},
		{"star_largest_hub", 300, star, 0},
		{"caterpillar", 500, caterpillar, 0},
		{"reversed_binary_tree", 511, tree, 0},
		{"pairs_among_isolated", 600, pairs, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rounds := checkComponents(t, tc.n, tc.edges, []int{1, 4, 9, 16})
			t.Logf("lacc.rounds = %d (largest over P)", rounds)
			if tc.maxRounds > 0 && rounds > tc.maxRounds {
				t.Fatalf("%d rounds, want ≤ %d", rounds, tc.maxRounds)
			}
		})
	}
}
