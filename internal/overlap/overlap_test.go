package overlap

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/align"
	"repro/internal/bidir"
	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/readsim"
	"repro/internal/spmat"
	"repro/internal/trace"
)

// countKmers is the CountKmer stage as the pipeline runs it, with the
// suite's reliable band [2, 80].
func countKmers(store *fasta.DistStore, cfg Config) *kmer.Result {
	return kmer.CountAndBuild(store, cfg.K, 2, 80, cfg.Threads)
}

// runStages chains the three stages the way the pipeline engine does, for
// tests that only care about the final overlap matrix.
func runStages(g *grid.Grid, store *fasta.DistStore, cfg Config) *Result {
	res := &Result{NumReads: store.N}
	cands, _ := DetectCandidates(g, store, countKmers(store, cfg), res)
	AlignCandidates(g, store, cands, cfg, trace.New(), res)
	return res
}

func testConfig(k int, xdrop int32) Config {
	return Config{
		K:            k,
		Align:        align.DefaultParams(xdrop),
		MinOverlap:   100,
		MinScoreFrac: 0.5,
		MaxOverhang:  60,
	}
}

// trueOverlap returns the genomic overlap length of two simulated reads.
func trueOverlap(a, b readsim.Read) int {
	lo := max(a.Pos, b.Pos)
	hi := min(a.End, b.End)
	if hi < lo {
		return 0
	}
	return hi - lo
}

func TestSeedsMergeKeepsTwoSmallestDistinct(t *testing.T) {
	s1 := align.Seed{PU: 10, PV: 5}
	s2 := align.Seed{PU: 3, PV: 7}
	s3 := align.Seed{PU: 20, PV: 1}
	a, _ := accumulate([]align.Seed{s1, s1}) // duplicate ignored
	if got := a.seeds(); got.N != 1 || got.S[0] != s1 {
		t.Fatalf("got %+v", got)
	}
	a, _ = accumulate([]align.Seed{s1, s1, s3, s2})
	if got := a.seeds(); got.N != 2 || got.S[0] != s2 || got.S[1] != s1 {
		t.Fatalf("got %+v", got)
	}
	// Merge must be order-insensitive (semiring Add commutativity).
	b, _ := accumulate([]align.Seed{s2})
	c1, _ := accumulate([]align.Seed{s1, s3})
	m1 := seedSemiring.Add(c1, b)
	m2 := seedSemiring.Add(b, c1)
	if m1 != m2 || m1 != a {
		t.Fatalf("merge not commutative: %+v vs %+v (want %+v)", m1, m2, a)
	}
}

// TestDetectCandidatesMatchesValueSemantics pins the fused detection — masked
// multiply, packed in-place accumulation — to the algorithm it replaced: the
// full symmetric C = A·Aᵀ accumulated with the value-semantics seed
// arithmetic (refAddSeed), then the diagonal and one direction of every pair
// pruned post hoc. Rows, columns and Seeds values must all match, for every
// grid size and both schedules.
func TestDetectCandidatesMatchesValueSemantics(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeConfig{Length: 12000, Seed: 41})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 10, MeanLen: 1500, ErrorRate: 0.01, Seed: 42}))
	for _, p := range []int{1, 4, 9} {
		for _, async := range []bool{false, true} {
			cfg := testConfig(17, 20)
			var got []spmat.Triple[Seeds]
			var a []spmat.Triple[kmer.Occur]
			var pairs int64
			err := mpi.Run(p, func(c *mpi.Comm) {
				g := grid.New(c)
				store := fasta.FromGlobal(c, reads)
				res := &Result{NumReads: store.N}
				var kres *kmer.Result
				var cand *spmat.Dist[Seeds]
				mpitest.InMode(c, async, func() {
					kres = countKmers(store, cfg)
					cand, _ = DetectCandidates(g, store, kres, res)
				})
				// A from the counting stage's triples by the generic
				// constructor, not the panels DetectCandidates builds.
				am := spmat.NewDist(g, int32(store.N), int32(kres.NumCols), slices.Clone(kres.Triples), nil)
				gc, ga := cand.GatherTriples(0), am.GatherTriples(0)
				if c.Rank() == 0 {
					got, a, pairs = gc, ga, res.CandidatePairs
				}
			})
			if err != nil {
				t.Fatalf("P=%d async=%v: %v", p, async, err)
			}
			// a is column-major: each run of equal Col is one k-mer's occurrences.
			full := map[[2]int32]Seeds{}
			for lo := 0; lo < len(a); {
				hi := lo
				for hi < len(a) && a[hi].Col == a[lo].Col {
					hi++
				}
				for _, u := range a[lo:hi] {
					for _, v := range a[lo:hi] {
						key := [2]int32{u.Row, v.Row}
						full[key] = refAddSeed(full[key], align.Seed{PU: u.Val.Pos(), PV: v.Val.Pos(), RC: u.Val.RC() != v.Val.RC()})
					}
				}
				lo = hi
			}
			var want []spmat.Triple[Seeds]
			for key, v := range full {
				r, cc := key[0], key[1]
				if r == cc || ((r+cc)%2 == 0) != (r < cc) {
					continue
				}
				want = append(want, spmat.Triple[Seeds]{Row: r, Col: cc, Val: v})
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].Col != want[j].Col {
					return want[i].Col < want[j].Col
				}
				return want[i].Row < want[j].Row
			})
			if len(want) < 100 {
				t.Fatalf("reference found only %d candidates; test input too small", len(want))
			}
			if pairs != int64(len(want)) || !reflect.DeepEqual(got, want) {
				t.Fatalf("P=%d async=%v: %d candidates (CandidatePairs %d) differ from the %d of the value-semantics reference",
					p, async, len(got), pairs, len(want))
			}
		}
	}
}

// TestCandidatesIndependentOfColumnOrder: seeds, products and candidates
// depend on reads and positions only, never on which column id a k-mer has,
// so relabelling A's columns — a random permutation, and the sorted-k-mer
// numbering the counting stage used to assign — must give a deep-equal
// candidate matrix and the same product count as the counting stage's own
// first-occurrence numbering, on every grid size.
func TestCandidatesIndependentOfColumnOrder(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeConfig{Length: 12000, Seed: 43})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 10, MeanLen: 1500, ErrorRate: 0.01, Seed: 44}))
	cfg := testConfig(17, 20)
	sum := func(x, y int64) int64 { return x + y }
	for _, p := range []int{1, 4, 9} {
		err := mpi.Run(p, func(c *mpi.Comm) {
			g := grid.New(c)
			store := fasta.FromGlobal(c, reads)
			kres := countKmers(store, cfg)
			// Every column's k-mer, gathered, ranks the columns by k-mer.
			type colKmer struct {
				Col int32
				Km  kmer.Kmer
			}
			var mine []colKmer
			for _, tr := range kres.Triples {
				fwd := kmer.Encode(store.Get(int(tr.Row))[tr.Val.Pos():int(tr.Val.Pos())+cfg.K], cfg.K)
				mine = append(mine, colKmer{tr.Col, min(fwd, kmer.RevComp(fwd, cfg.K))})
			}
			all, _ := mpi.AllgathervFlat(c, mine)
			kmerOf := make([]kmer.Kmer, kres.NumCols)
			for _, ck := range all {
				kmerOf[ck.Col] = ck.Km
			}
			bySorted := make([]int32, kres.NumCols)
			for i := range bySorted {
				bySorted[i] = int32(i)
			}
			slices.SortFunc(bySorted, func(x, y int32) int { return cmp.Compare(kmerOf[x], kmerOf[y]) })
			sortedID := make([]int32, kres.NumCols)
			for id, col := range bySorted {
				sortedID[col] = int32(id)
			}
			permuted := make([]int32, kres.NumCols)
			for i, id := range rand.New(rand.NewSource(int64(p))).Perm(kres.NumCols) {
				permuted[i] = int32(id)
			}
			if slices.IsSorted(sortedID) {
				panic("sorted-k-mer numbering equals the first-occurrence one: nothing to compare")
			}

			detect := func(id []int32) ([]spmat.Triple[Seeds], int64) {
				relabelled := *kres
				relabelled.Triples = slices.Clone(kres.Triples)
				if id != nil {
					for i := range relabelled.Triples { // still row-grouped: FromRows sorts
						relabelled.Triples[i].Col = id[relabelled.Triples[i].Col]
					}
				}
				cand, products := DetectCandidates(g, store, &relabelled, &Result{NumReads: store.N})
				return cand.GatherTriples(0), mpi.Allreduce(c, products, sum)
			}
			want, wantProducts := detect(nil)
			for _, relabel := range []struct {
				name string
				id   []int32
			}{{"permuted", permuted}, {"sorted k-mers", sortedID}} {
				got, products := detect(relabel.id)
				if products != wantProducts {
					panic(fmt.Sprintf("%s columns: %d products, want %d", relabel.name, products, wantProducts))
				}
				if c.Rank() == 0 && (len(want) < 100 || !reflect.DeepEqual(got, want)) {
					panic(fmt.Sprintf("%s columns: %d candidates differ from the %d of the counting stage's numbering", relabel.name, len(got), len(want)))
				}
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

func TestRunErrorFreeFindsTrueOverlapsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run in -short mode")
	}
	genome := readsim.Genome(readsim.GenomeConfig{Length: 40000, Seed: 17})
	reads := readsim.Simulate(genome, readsim.ReadConfig{Depth: 12, MeanLen: 2500, Seed: 18})
	seqs := readsim.Seqs(reads)
	cfg := testConfig(21, 25)

	for _, p := range []int{1, 4} {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			var edges []spmat.Triple[bidir.Aln]
			var contained []int32
			err := mpi.Run(p, func(c *mpi.Comm) {
				g := grid.New(c)
				store := fasta.FromGlobal(c, seqs)
				res := runStages(g, store, cfg)
				all := res.R.GatherTriples(0)
				if c.Rank() == 0 {
					edges = all
					contained = res.Contained
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(edges) == 0 {
				t.Fatal("no overlaps found")
			}
			// Soundness: every edge connects truly overlapping reads.
			for _, e := range edges {
				ov := trueOverlap(reads[e.Row], reads[e.Col])
				if ov < 50 {
					t.Fatalf("edge (%d,%d) between non-overlapping reads (true ov %d)", e.Row, e.Col, ov)
				}
			}
			// Symmetry.
			set := map[[2]int32]bool{}
			for _, e := range edges {
				set[[2]int32{e.Row, e.Col}] = true
			}
			for _, e := range edges {
				if !set[[2]int32{e.Col, e.Row}] {
					t.Fatalf("edge (%d,%d) has no mirror", e.Row, e.Col)
				}
			}
			// Completeness: most substantial true dovetail overlaps between
			// surviving reads are found.
			dead := map[int32]bool{}
			for _, id := range contained {
				dead[id] = true
			}
			found, missed := 0, 0
			for i := range reads {
				for j := i + 1; j < len(reads); j++ {
					if dead[int32(i)] || dead[int32(j)] {
						continue
					}
					ov := trueOverlap(reads[i], reads[j])
					// Require a solid dovetail: long overlap but neither
					// contains the other.
					cont := (reads[i].Pos <= reads[j].Pos && reads[i].End >= reads[j].End) ||
						(reads[j].Pos <= reads[i].Pos && reads[j].End >= reads[i].End)
					if ov < 500 || cont {
						continue
					}
					if set[[2]int32{int32(i), int32(j)}] {
						found++
					} else {
						missed++
					}
				}
			}
			if found == 0 || missed > found/5 {
				t.Fatalf("found %d, missed %d true overlaps", found, missed)
			}
		})
	}
}

func TestRunDeterministicAcrossP(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeConfig{Length: 15000, Seed: 23})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 8, MeanLen: 1500, Seed: 24}))
	cfg := testConfig(17, 20)
	var results [][]spmat.Triple[bidir.Aln]
	for _, p := range []int{1, 4, 9} {
		var edges []spmat.Triple[bidir.Aln]
		err := mpi.Run(p, func(c *mpi.Comm) {
			g := grid.New(c)
			store := fasta.FromGlobal(c, reads)
			res := runStages(g, store, cfg)
			all := res.R.GatherTriples(0)
			if c.Rank() == 0 {
				edges = all
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		results = append(results, edges)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("overlap graph differs between P=1 and run %d", i)
		}
	}
}

func TestRunWithErrorsStillFindsOverlaps(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run in -short mode")
	}
	genome := readsim.Genome(readsim.GenomeConfig{Length: 30000, Seed: 29})
	reads := readsim.Simulate(genome, readsim.ReadConfig{Depth: 10, MeanLen: 2500, ErrorRate: 0.03, Seed: 30})
	seqs := readsim.Seqs(reads)
	cfg := testConfig(17, 30)
	cfg.MinScoreFrac = 0.3
	var nEdges int64
	var bad int
	err := mpi.Run(4, func(c *mpi.Comm) {
		g := grid.New(c)
		store := fasta.FromGlobal(c, seqs)
		res := runStages(g, store, cfg)
		all := res.R.GatherTriples(0)
		if c.Rank() == 0 {
			nEdges = int64(len(all))
			for _, e := range all {
				if trueOverlap(reads[e.Row], reads[e.Col]) < 50 {
					bad++
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if nEdges < 10 {
		t.Fatalf("only %d edges at 3%% error", nEdges)
	}
	if bad > 0 {
		t.Fatalf("%d spurious edges", bad)
	}
}

func TestContainedReadsAreRemoved(t *testing.T) {
	// Construct a scenario with a guaranteed containment: one short read
	// inside a long one.
	genome := readsim.Genome(readsim.GenomeConfig{Length: 12000, Seed: 31})
	var seqs [][]byte
	// Tile the genome with long reads.
	step, rl := 800, 2400
	for pos := 0; pos+rl <= len(genome); pos += step {
		seqs = append(seqs, genome[pos:pos+rl])
	}
	// Append a short read strictly inside read 0.
	containedID := int32(len(seqs))
	seqs = append(seqs, genome[600:1400])
	cfg := testConfig(21, 20)
	err := mpi.Run(4, func(c *mpi.Comm) {
		g := grid.New(c)
		store := fasta.FromGlobal(c, seqs)
		res := runStages(g, store, cfg)
		isContained := false
		for _, id := range res.Contained {
			if id == containedID {
				isContained = true
			}
		}
		if !isContained {
			panic("short embedded read not detected as contained")
		}
		for _, t := range res.R.Local.Ts {
			if t.Row == containedID || t.Col == containedID {
				panic("contained read still has edges")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestToStringGraphClassifiesAll(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeConfig{Length: 20000, Seed: 37})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 10, MeanLen: 2000, Seed: 38}))
	cfg := testConfig(21, 20)
	err := mpi.Run(4, func(c *mpi.Comm) {
		g := grid.New(c)
		store := fasta.FromGlobal(c, reads)
		res := runStages(g, store, cfg)
		s := ToStringGraph(res.R, cfg.MaxOverhang)
		if s.Nnz() != res.R.Nnz() {
			panic("string graph lost edges")
		}
		// Directed values must be mirror-consistent: gather and check.
		all := s.GatherTriples(0)
		if g.Comm.Rank() == 0 {
			vals := map[[2]int32]bidir.Edge{}
			for _, t := range all {
				vals[[2]int32{t.Row, t.Col}] = t.Val
			}
			for _, t := range all {
				m, ok := vals[[2]int32{t.Col, t.Row}]
				if !ok {
					panic("missing mirror")
				}
				if t.Val.SrcBit() != m.DstBit() || t.Val.DstBit() != m.SrcBit() {
					panic("mirror direction bits inconsistent")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
