package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bidir"
	"repro/internal/grid"
	"repro/internal/lacc"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/readsim"
	"repro/internal/spmat"
)

// TestWalkCutsInvalidJunction: a "hairpin" vertex whose two edges use the
// same end is not a valid walk; the chain must be cut there and both sides
// assembled separately instead of producing a corrupt contig.
func TestWalkCutsInvalidJunction(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 600, Seed: 21})
	r0 := g[0:200]
	r1 := g[150:350]
	// r2 overlaps r1's SUFFIX region but with an orientation that enters r1
	// through the same end the walk entered: build it artificially by
	// claiming r2 overlaps r1 at r1's PREFIX end (same end as r0's edge).
	r2 := g[150:300] // truly overlaps r1's prefix region
	e01, e10 := classifyPair(t, bidir.Aln{U: 0, V: 1, BU: 150, EU: 200, BV: 0, EV: 50, LU: 200, LV: 200})
	// r1→r2: r1's prefix again (r2 contained-ish but force a dovetail shape:
	// overlap r1[0:150) with r2[0:150) is containment, so instead use a
	// partial: r1[0:100) ~ r2[50:150).
	e12, e21 := classifyPair(t, bidir.Aln{U: 1, V: 2, BU: 0, EU: 100, BV: 50, EV: 150, LU: 200, LV: 150})
	// Both e10-mirror (enters r1 at prefix) and e12 (leaves r1 at prefix)
	// use r1's prefix: the junction is invalid iff e12.SrcBit == e01.DstBit.
	if e12.SrcBit() != e01.DstBit() {
		t.Skip("construction did not produce a hairpin (classification moved)")
	}
	lg := buildLocalGraph(3, []spmat.Triple[bidir.Edge]{
		{Row: 0, Col: 1, Val: e01}, {Row: 1, Col: 0, Val: e10},
		{Row: 1, Col: 2, Val: e12}, {Row: 2, Col: 1, Val: e21},
	})
	seqs := map[int32][]byte{0: r0, 1: r1, 2: r2}
	contigs := LocalAssembly(lg, seqs)
	// The invalid junction must yield two 2-read contigs, not one 3-read one.
	for _, c := range contigs {
		if len(c.Reads) == 3 {
			t.Fatal("walked through an invalid junction")
		}
	}
	if len(contigs) != 2 {
		t.Fatalf("got %d contigs, want 2 segments", len(contigs))
	}
}

// TestPartitionContigsFewerThanRanks: the paper notes n < P leaves ranks
// idle in the final phase; the assignment must still be valid.
func TestPartitionContigsFewerThanRanks(t *testing.T) {
	// Two 3-vertex chains on a 16-rank grid.
	n := int32(6)
	var ts []spmat.Triple[bidir.Edge]
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		ts = append(ts, spmat.Triple[bidir.Edge]{Row: e[0], Col: e[1]},
			spmat.Triple[bidir.Edge]{Row: e[1], Col: e[0]})
	}
	err := mpi.Run(16, func(c *mpi.Comm) {
		g := grid.New(c)
		l := spmat.FromGlobalTriples(g, n, n, ts, nil)
		deg := l.RowDegrees()
		labels := spmat.VecFromGlobal(g, []int32{0, 0, 0, 3, 3, 3})
		res := &Result{}
		assign := PartitionContigs(labels, deg, res)
		if res.NumContigs != 2 {
			panic(fmt.Sprintf("%d contigs, want 2", res.NumContigs))
		}
		full := assign.AllgatherFull()
		// Both contigs assigned, each to one rank; 14 ranks idle.
		procs := map[int32]bool{}
		for _, p := range full {
			if p >= 0 {
				procs[p] = true
			}
		}
		if len(procs) != 2 {
			panic(fmt.Sprintf("contigs spread over %d ranks, want 2", len(procs)))
		}
		// Same-contig vertices must share a destination.
		if full[0] != full[1] || full[1] != full[2] || full[3] != full[4] || full[4] != full[5] {
			panic("contig split across ranks")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPartitionContigsMatchesSerial holds the distributed contig sizes and
// assignment to a serial union-find plus partition.LPT, on random graphs
// whose components are chains and trees over shuffled vertex ids — so they
// span ranks — with isolated vertices between them, at P ∈ {1, 4, 9, 16}.
func TestPartitionContigsMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := int32(60 + rng.Intn(60))
		perm := rng.Perm(int(n))
		edges := map[[2]int32]bool{}
		for i := 1; i < len(perm)*4/5; i++ {
			if rng.Intn(6) > 0 { // else start a new component at perm[i]
				u, v := int32(perm[i]), int32(perm[rng.Intn(i)])
				edges[[2]int32{u, v}], edges[[2]int32{v, u}] = true, true
			}
		}
		var ts []spmat.Triple[bidir.Edge]
		deg := make([]int64, n)
		parent := make([]int32, n)
		for i := range parent {
			parent[i] = int32(i)
		}
		var find func(int32) int32
		find = func(x int32) int32 {
			if parent[x] != x {
				parent[x] = find(parent[x])
			}
			return parent[x]
		}
		for e := range edges {
			ts = append(ts, spmat.Triple[bidir.Edge]{Row: e[0], Col: e[1]})
			deg[e[0]]++
			if ru, rv := find(e[0]), find(e[1]); ru != rv {
				parent[max(ru, rv)] = min(ru, rv) // the root is the smallest id
			}
		}
		size := make([]int64, n)
		for v := range n {
			if deg[v] > 0 {
				size[find(v)]++
			}
		}
		var labels []int32 // components of ≥ 2 reads, ascending
		var sizes []int64
		for v, sz := range size {
			if sz >= 2 {
				labels, sizes = append(labels, int32(v)), append(sizes, sz)
			}
		}
		for _, p := range []int{1, 4, 9, 16} {
			procOf, _ := partition.LPT(sizes, p)
			want := make([]int32, n)
			var wantAssigned int64
			for v := range n {
				want[v] = -1
				if k, ok := slices.BinarySearch(labels, find(v)); ok && deg[v] > 0 {
					want[v] = procOf[k]
					wantAssigned++
				}
			}
			err := mpi.Run(p, func(c *mpi.Comm) {
				g := grid.New(c)
				l := spmat.FromGlobalTriples(g, n, n, slices.Clone(ts), nil)
				res := &Result{}
				assign := PartitionContigs(lacc.Components(l), l.RowDegrees(), res)
				if got := assign.AllgatherFull(); !slices.Equal(got, want) {
					panic(fmt.Sprintf("assignment %v, want %v", got, want))
				}
				if res.NumContigs != int64(len(labels)) || res.AssignedReads != wantAssigned {
					panic(fmt.Sprintf("%d contigs, %d reads assigned; want %d, %d",
						res.NumContigs, res.AssignedReads, len(labels), wantAssigned))
				}
			})
			if err != nil {
				t.Fatalf("seed %d, n %d, P=%d: %v", seed, n, p, err)
			}
		}
	}
}

// TestGatherContigsCanonicalOrder: gathered contigs arrive sorted by
// (length desc, sequence), independent of which rank assembled them.
func TestGatherContigsCanonicalOrder(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) {
		var mine []Contig
		// Each rank contributes different contigs.
		switch c.Rank() {
		case 0:
			mine = []Contig{{Seq: []byte("AAAA")}}
		case 1:
			mine = []Contig{{Seq: []byte("CCCCCC")}, {Seq: []byte("GG")}}
		case 3:
			mine = []Contig{{Seq: []byte("TTTT")}}
		}
		all := GatherContigs(c, mine)
		if c.Rank() == 0 {
			want := []string{"CCCCCC", "AAAA", "TTTT", "GG"}
			if len(all) != len(want) {
				panic(fmt.Sprintf("%d contigs", len(all)))
			}
			for i, w := range want {
				if string(all[i].Seq) != w {
					panic(fmt.Sprintf("order wrong at %d: %s", i, all[i].Seq))
				}
			}
		} else if all != nil {
			panic("non-root must get nil")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherContigsChunked: at P 4 and 9 with mpi.MaxMessageBytes at 64
// bytes, where every rank's encoded contigs need several chunks, root gathers
// the same contigs as in the unlimited run.
func TestGatherContigsChunked(t *testing.T) {
	defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
	unlimited := mpi.MaxMessageBytes
	for _, p := range []int{4, 9} {
		run := func() []Contig {
			var all []Contig
			err := mpi.Run(p, func(c *mpi.Comm) {
				r := c.Rank()
				mine := []Contig{
					{Seq: bytes.Repeat([]byte("ACGT"[r%4:r%4+1]), 50+r), Reads: []int32{int32(r), int32(r + p)}},
					{Seq: bytes.Repeat([]byte("GT"), 30+r), Reads: []int32{int32(r + 2*p)}, Circular: r%2 == 1},
				}
				if got := GatherContigs(c, mine); r == 0 {
					all = got
				}
			})
			if err != nil {
				t.Fatalf("P=%d MaxMessageBytes=%d: %v", p, mpi.MaxMessageBytes, err)
			}
			return all
		}
		mpi.MaxMessageBytes = unlimited
		want := run()
		if len(want) != 2*p {
			t.Fatalf("P=%d: gathered %d contigs, want %d", p, len(want), 2*p)
		}
		mpi.MaxMessageBytes = 64
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("P=%d: contigs gathered under the limit differ from the unlimited run", p)
		}
	}
}

// TestAppendPieceBounds exercises the inclusive-slice clamping.
func TestAppendPieceBounds(t *testing.T) {
	l := []byte("ACGT")
	// Forward, pre=-1 (empty prefix).
	if got := appendPiece(nil, l, 0, -1, true); len(got) != 0 {
		t.Fatalf("empty forward piece: %q", got)
	}
	// Forward full.
	if got := appendPiece(nil, l, 0, 3, true); string(got) != "ACGT" {
		t.Fatalf("full forward: %q", got)
	}
	// Reverse full: revcomp(ACGT) = ACGT.
	if got := appendPiece(nil, l, 3, 0, false); string(got) != "ACGT" {
		t.Fatalf("full reverse: %q", got)
	}
	// Reverse of GT (indices 2..3, descending) = AC.
	if got := appendPiece(nil, l, 3, 2, false); string(got) != "AC" {
		t.Fatalf("partial reverse: %q", got)
	}
	// An IUPAC R read off the reverse strand is a Y, not an N.
	if got := appendPiece(nil, []byte("ARGT"), 3, 0, false); string(got) != "ACYT" {
		t.Fatalf("reverse IUPAC piece: %q, want ACYT", got)
	}
	// Reverse empty (from < to).
	if got := appendPiece(nil, l, 1, 2, false); len(got) != 0 {
		t.Fatalf("empty reverse piece: %q", got)
	}
	// Out-of-range clamps.
	if got := appendPiece(nil, l, 0, 100, true); string(got) != "ACGT" {
		t.Fatalf("clamped forward: %q", got)
	}
	if got := appendPiece(nil, l, 100, 0, false); string(got) != "ACGT" {
		t.Fatalf("clamped reverse: %q", got)
	}
}
