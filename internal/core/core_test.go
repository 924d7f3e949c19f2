package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/bidir"
	"repro/internal/dna"
	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/overlap"
	"repro/internal/readsim"
	"repro/internal/spmat"
	"repro/internal/tr"
	"repro/internal/trace"
)

// buildLocalGraph hand-assembles a LocalGraph from directed edges.
func buildLocalGraph(n int32, edges []spmat.Triple[bidir.Edge]) *LocalGraph {
	globals := make([]int32, n)
	for i := range globals {
		globals[i] = int32(i)
	}
	// Column = source convention.
	ts := make([]spmat.Triple[bidir.Edge], len(edges))
	for i, e := range edges {
		ts[i] = spmat.Triple[bidir.Edge]{Row: e.Col, Col: e.Row, Val: e.Val}
	}
	coo := spmat.NewCOO(n, n, ts, nil)
	return &LocalGraph{Globals: globals, CSC: coo.ToCSC()}
}

func classifyPair(t *testing.T, a bidir.Aln) (fwd, rev bidir.Edge) {
	t.Helper()
	e, kind := bidir.Classify(a, bidir.Params{MaxOverhang: 3})
	if kind != bidir.Dovetail {
		t.Fatalf("expected dovetail, got %v", kind)
	}
	m, kind2 := bidir.Classify(a.Mirror(), bidir.Params{MaxOverhang: 3})
	if kind2 != bidir.Dovetail {
		t.Fatalf("mirror not dovetail: %v", kind2)
	}
	return e, m
}

// TestLocalAssemblyFigure3 reproduces the paper's Figure 3: reads
// l0=AGAACT, l1=AACTGAAG, l2=TGAAGAA concatenate to AGAACTGAAGAA.
func TestLocalAssemblyFigure3(t *testing.T) {
	l0 := []byte("AGAACT")
	l1 := []byte("AACTGAAG")
	l2 := []byte("TGAAGAA")
	want := "AGAACTGAAGAA"

	e01, e10 := classifyPair(t, bidir.Aln{U: 0, V: 1, BU: 2, EU: 6, BV: 0, EV: 4, LU: 6, LV: 8})
	e12, e21 := classifyPair(t, bidir.Aln{U: 1, V: 2, BU: 3, EU: 8, BV: 0, EV: 5, LU: 8, LV: 7})
	lg := buildLocalGraph(3, []spmat.Triple[bidir.Edge]{
		{Row: 0, Col: 1, Val: e01}, {Row: 1, Col: 0, Val: e10},
		{Row: 1, Col: 2, Val: e12}, {Row: 2, Col: 1, Val: e21},
	})
	seqs := map[int32][]byte{0: l0, 1: l1, 2: l2}
	contigs := LocalAssembly(lg, seqs)
	if len(contigs) != 1 {
		t.Fatalf("got %d contigs", len(contigs))
	}
	got := string(contigs[0].Seq)
	if got != want && got != string(dna.RevComp([]byte(want))) {
		t.Fatalf("contig %q, want %q", got, want)
	}
	if len(contigs[0].Reads) != 3 {
		t.Fatalf("reads %v", contigs[0].Reads)
	}
}

// TestLocalAssemblyFigure3XDropTruncated uses the paper's truncated
// alignment for the second edge (pre=4, post=2): the contig must be
// identical — the reason post(e) is stored.
func TestLocalAssemblyFigure3XDropTruncated(t *testing.T) {
	l0 := []byte("AGAACT")
	l1 := []byte("AACTGAAG")
	l2 := []byte("TGAAGAA")
	want := "AGAACTGAAGAA"

	e01, e10 := classifyPair(t, bidir.Aln{U: 0, V: 1, BU: 2, EU: 6, BV: 0, EV: 4, LU: 6, LV: 8})
	// x-drop stopped early: l1[5:7] ~ l2[2:4] inclusive.
	e12, e21 := classifyPair(t, bidir.Aln{U: 1, V: 2, BU: 5, EU: 8, BV: 2, EV: 5, LU: 8, LV: 7})
	if e12.Pre != 4 || e12.Post != 2 {
		t.Fatalf("pre/post = %d/%d, want 4/2 (paper)", e12.Pre, e12.Post)
	}
	lg := buildLocalGraph(3, []spmat.Triple[bidir.Edge]{
		{Row: 0, Col: 1, Val: e01}, {Row: 1, Col: 0, Val: e10},
		{Row: 1, Col: 2, Val: e12}, {Row: 2, Col: 1, Val: e21},
	})
	contigs := LocalAssembly(lg, map[int32][]byte{0: l0, 1: l1, 2: l2})
	if len(contigs) != 1 || string(contigs[0].Seq) != want {
		t.Fatalf("got %v", contigs)
	}
}

// TestLocalAssemblyReverseComplementChain builds a chain where the middle
// read is stored reverse-complemented; the contig must still spell the
// genome (or its reverse complement).
func TestLocalAssemblyReverseComplementChain(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 400, Seed: 5})
	r0 := append([]byte(nil), g[0:200]...)
	r1 := dna.RevComp(g[120:320]) // stored flipped
	r2 := append([]byte(nil), g[250:400]...)

	// r0 (fwd) overlaps r1 (rc): genome [120,200). On r1's forward coords
	// the genome window [120,320) maps reversed: genome pos x → r1 index
	// 319-x; so [120,200) → r1 indices [120,200) → wait: 319-120=199,
	// 319-199=120: indices [120,199] i.e. [120,200).
	a01 := bidir.Aln{U: 0, V: 1, BU: 120, EU: 200, BV: 120, EV: 200, RC: true, LU: 200, LV: 200}
	// r1 (rc) overlaps r2 (fwd): genome [250,320) → r1 indices [0,70).
	a12 := bidir.Aln{U: 1, V: 2, BU: 0, EU: 70, BV: 0, EV: 70, RC: true, LU: 200, LV: 150}
	e01, e10 := classifyPair(t, a01)
	e12, e21 := classifyPair(t, a12)
	lg := buildLocalGraph(3, []spmat.Triple[bidir.Edge]{
		{Row: 0, Col: 1, Val: e01}, {Row: 1, Col: 0, Val: e10},
		{Row: 1, Col: 2, Val: e12}, {Row: 2, Col: 1, Val: e21},
	})
	contigs := LocalAssembly(lg, map[int32][]byte{0: r0, 1: r1, 2: r2})
	if len(contigs) != 1 {
		t.Fatalf("got %d contigs", len(contigs))
	}
	got := contigs[0].Seq
	if !bytes.Equal(got, g) && !bytes.Equal(got, dna.RevComp(g)) {
		t.Fatalf("contig (%d bases) does not spell the 400-base genome", len(got))
	}
}

// TestLocalAssemblyTwoReadContig: the minimal contig (q=2).
func TestLocalAssemblyTwoReadContig(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 150, Seed: 9})
	r0, r1 := g[0:100], g[50:150]
	a := bidir.Aln{U: 0, V: 1, BU: 50, EU: 100, BV: 0, EV: 50, LU: 100, LV: 100}
	e01, e10 := classifyPair(t, a)
	lg := buildLocalGraph(2, []spmat.Triple[bidir.Edge]{
		{Row: 0, Col: 1, Val: e01}, {Row: 1, Col: 0, Val: e10},
	})
	contigs := LocalAssembly(lg, map[int32][]byte{0: r0, 1: r1})
	if len(contigs) != 1 {
		t.Fatalf("got %d contigs", len(contigs))
	}
	if !bytes.Equal(contigs[0].Seq, g) && !bytes.Equal(contigs[0].Seq, dna.RevComp(g)) {
		t.Fatalf("2-read contig wrong: %d bases, want 150", len(contigs[0].Seq))
	}
}

// TestLocalAssemblyCycle: a circular chain has no roots; the cycle pass must
// recover it and flag it circular.
func TestLocalAssemblyCycle(t *testing.T) {
	// Ring of 4 reads from a circular mini-genome.
	g := readsim.Genome(readsim.GenomeConfig{Length: 400, Seed: 13})
	circ := append(append([]byte(nil), g...), g[:100]...) // wrap 100
	reads := [][]byte{circ[0:200], circ[100:300], circ[200:400], circ[300:500]}
	var ts []spmat.Triple[bidir.Edge]
	addPair := func(u, v int32, a bidir.Aln) {
		e, m := classifyPair(t, a)
		ts = append(ts, spmat.Triple[bidir.Edge]{Row: u, Col: v, Val: e},
			spmat.Triple[bidir.Edge]{Row: v, Col: u, Val: m})
	}
	for i := int32(0); i < 4; i++ {
		j := (i + 1) % 4
		addPair(i, j, bidir.Aln{U: i, V: j, BU: 100, EU: 200, BV: 0, EV: 100, LU: 200, LV: 200})
	}
	lg := buildLocalGraph(4, ts)
	seqs := map[int32][]byte{}
	for i, r := range reads {
		seqs[int32(i)] = r
	}
	contigs := LocalAssembly(lg, seqs)
	if len(contigs) != 1 {
		t.Fatalf("got %d contigs from ring", len(contigs))
	}
	if !contigs[0].Circular {
		t.Fatal("ring contig not flagged circular")
	}
	if len(contigs[0].Reads) != 4 {
		t.Fatalf("ring walked %d reads", len(contigs[0].Reads))
	}
}

// pipelineToContigs runs the full distributed pipeline on the given reads.
func pipelineToContigs(t *testing.T, p int, seqs [][]byte, k int, xdrop int32) ([]Contig, *Result) {
	t.Helper()
	cfg := overlap.Config{
		K:            k,
		Align:        align.DefaultParams(xdrop),
		MinOverlap:   100,
		MinScoreFrac: 0.5,
		MaxOverhang:  60,
	}
	var contigs []Contig
	var resOut Result
	err := mpi.Run(p, func(c *mpi.Comm) {
		g := grid.New(c)
		store := fasta.FromGlobal(c, seqs)
		tm := trace.New()
		ores := &overlap.Result{NumReads: store.N}
		kres := kmer.CountAndBuild(store, k, 2, 100, cfg.Threads)
		cands, _ := overlap.DetectCandidates(g, store, kres, ores)
		overlap.AlignCandidates(g, store, cands, cfg, tm, ores)
		s := overlap.ToStringGraph(ores.R, cfg.MaxOverhang)
		tr.Reduce(s, 150, 10, false)
		res := ContigGeneration(s, store, tm, false, false)
		all := GatherContigs(c, res.Contigs)
		if c.Rank() == 0 {
			contigs = all
			resOut = *res
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return contigs, &resOut
}

// TestEndToEndErrorFreeGenomeRoundTrip is the central correctness property:
// on error-free reads every assembled contig must be an exact substring of
// the reference genome or of its reverse complement, and the contigs must
// cover most of the genome.
func TestEndToEndErrorFreeGenomeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run in -short mode")
	}
	genome := readsim.Genome(readsim.GenomeConfig{Length: 30000, Seed: 41})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 15, MeanLen: 2200, Seed: 42}))
	rc := string(dna.RevComp(genome))
	fw := string(genome)

	for _, p := range []int{1, 4} {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			contigs, res := pipelineToContigs(t, p, reads, 21, 25)
			if len(contigs) == 0 {
				t.Fatal("no contigs")
			}
			var covered int
			for i, ct := range contigs {
				s := string(ct.Seq)
				if !strings.Contains(fw, s) && !strings.Contains(rc, s) {
					t.Fatalf("contig %d (%d bases, %d reads) is not a genome substring", i, len(s), len(ct.Reads))
				}
				if len(ct.Seq) > covered {
					covered = len(ct.Seq)
				}
			}
			// The longest contig should span most of the genome at depth 15.
			if covered < len(genome)*6/10 {
				t.Fatalf("longest contig %d of %d bases", covered, len(genome))
			}
			if res.NumContigs < 1 {
				t.Fatal("no contigs counted")
			}
			t.Logf("P=%d: %d contigs, longest %d/%d, branches=%d",
				p, len(contigs), covered, len(genome), res.BranchVertices)
		})
	}
}

// TestEndToEndDeterministicAcrossP: the contig set must be identical no
// matter how many ranks computed it.
func TestEndToEndDeterministicAcrossP(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run in -short mode")
	}
	genome := readsim.Genome(readsim.GenomeConfig{Length: 20000, Seed: 51})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 12, MeanLen: 1800, Seed: 52}))
	var sets [][]Contig
	for _, p := range []int{1, 4, 9} {
		contigs, _ := pipelineToContigs(t, p, reads, 21, 25)
		sets = append(sets, contigs)
	}
	for i := 1; i < len(sets); i++ {
		if len(sets[i]) != len(sets[0]) {
			t.Fatalf("run %d: %d contigs vs %d at P=1", i, len(sets[i]), len(sets[0]))
		}
		for j := range sets[0] {
			if !bytes.Equal(sets[0][j].Seq, sets[i][j].Seq) {
				t.Fatalf("run %d contig %d differs", i, j)
			}
		}
	}
}

// TestEndToEndWithErrors: at a realistic low error rate the pipeline must
// still produce long contigs highly similar to the genome (exact-substring
// no longer holds).
func TestEndToEndWithErrors(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeConfig{Length: 25000, Seed: 61})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 14, MeanLen: 2200, ErrorRate: 0.005, Seed: 62}))
	contigs, _ := pipelineToContigs(t, 4, reads, 21, 30)
	if len(contigs) == 0 {
		t.Fatal("no contigs")
	}
	if len(contigs[0].Seq) < len(genome)/2 {
		t.Fatalf("longest contig only %d of %d", len(contigs[0].Seq), len(genome))
	}
}

// TestBranchRemovalPaperExample reproduces the §4.2 example: chains
// 0→1→2, 2→3→4→5, 2→6→7 make vertex 2 a branch (degree 3 in the original
// graph: edges to 1, 3, 6); after masking, components {0,1}, {3,4,5}, {6,7}.
func TestBranchRemovalPaperExample(t *testing.T) {
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {2, 6}, {6, 7}}
	var ts []spmat.Triple[bidir.Edge]
	for _, e := range edges {
		ts = append(ts, spmat.Triple[bidir.Edge]{Row: e[0], Col: e[1]},
			spmat.Triple[bidir.Edge]{Row: e[1], Col: e[0]})
	}
	err := mpi.Run(4, func(c *mpi.Comm) {
		g := grid.New(c)
		s := spmat.FromGlobalTriples(g, 8, 8, ts, nil)
		l, deg, branches := BranchRemoval(s)
		if branches != 1 {
			panic(fmt.Sprintf("%d branch vertices, want 1 (vertex 2)", branches))
		}
		full := deg.AllgatherFull()
		want := []int32{1, 1, 0, 1, 2, 1, 1, 1}
		for i := range want {
			if full[i] != want[i] {
				panic(fmt.Sprintf("deg[%d]=%d want %d", i, full[i], want[i]))
			}
		}
		if l.Nnz() != 2*4 { // edges (0,1),(3,4),(4,5),(6,7) survive
			panic(fmt.Sprintf("L has %d nnz", l.Nnz()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInducedSubgraphFigure2 checks the Figure 2 communication on a 4×4
// grid: edges whose endpoints are assigned to the same processor arrive
// exactly there, and nothing else arrives.
func TestInducedSubgraphFigure2(t *testing.T) {
	n := int32(16)
	// Two chains: vertices 0..7 → contig A, 8..15 → contig B.
	var ts []spmat.Triple[bidir.Edge]
	for i := int32(0); i < 7; i++ {
		ts = append(ts, spmat.Triple[bidir.Edge]{Row: i, Col: i + 1},
			spmat.Triple[bidir.Edge]{Row: i + 1, Col: i})
	}
	for i := int32(8); i < 15; i++ {
		ts = append(ts, spmat.Triple[bidir.Edge]{Row: i, Col: i + 1},
			spmat.Triple[bidir.Edge]{Row: i + 1, Col: i})
	}
	err := mpi.Run(16, func(c *mpi.Comm) {
		g := grid.New(c)
		l := spmat.FromGlobalTriples(g, n, n, ts, nil)
		// Hand assignment: contig A → rank 5, contig B → rank 11.
		full := make([]int32, n)
		for i := int32(0); i < 8; i++ {
			full[i] = 5
		}
		for i := int32(8); i < 16; i++ {
			full[i] = 11
		}
		assign := spmat.VecFromGlobal(g, full)
		lg := InducedSubgraph(l, assign)
		switch c.Rank() {
		case 5:
			if len(lg.Globals) != 8 || lg.Globals[0] != 0 || lg.Globals[7] != 7 {
				panic(fmt.Sprintf("rank 5 got vertices %v", lg.Globals))
			}
			if len(lg.CSC.IR) != 14 {
				panic(fmt.Sprintf("rank 5 got %d directed edges, want 14", len(lg.CSC.IR)))
			}
		case 11:
			if len(lg.Globals) != 8 || lg.Globals[0] != 8 {
				panic(fmt.Sprintf("rank 11 got vertices %v", lg.Globals))
			}
		default:
			if len(lg.Globals) != 0 {
				panic(fmt.Sprintf("rank %d unexpectedly got %v", c.Rank(), lg.Globals))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInducedSubgraphChunked: at P 4 and 9 with mpi.MaxMessageBytes at 64
// bytes, where the edge routing's parts need several chunks, every rank
// receives the same local graph as in the unlimited run.
func TestInducedSubgraphChunked(t *testing.T) {
	n := int32(60)
	// One path 0–1–…–59, cut into four contigs of 15 vertices each.
	var ts []spmat.Triple[bidir.Edge]
	for i := int32(0); i+1 < n; i++ {
		ts = append(ts, spmat.Triple[bidir.Edge]{Row: i, Col: i + 1, Val: bidir.Edge{Suf: i}},
			spmat.Triple[bidir.Edge]{Row: i + 1, Col: i, Val: bidir.Edge{Suf: -i}})
	}
	defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
	unlimited := mpi.MaxMessageBytes
	for _, p := range []int{4, 9} {
		mpi.MaxMessageBytes = unlimited
		run := func() []*LocalGraph {
			out := make([]*LocalGraph, p)
			err := mpi.Run(p, func(c *mpi.Comm) {
				g := grid.New(c)
				full := make([]int32, n)
				for i := range full {
					full[i] = int32(i/15) * int32(p-1) / 3 // contig d on rank d·(P−1)/3
				}
				out[c.Rank()] = InducedSubgraph(spmat.FromGlobalTriples(g, n, n, ts, nil), spmat.VecFromGlobal(g, full))
			})
			if err != nil {
				t.Fatalf("P=%d MaxMessageBytes=%d: %v", p, mpi.MaxMessageBytes, err)
			}
			return out
		}
		want := run()
		for d := range 4 {
			if lg := want[d*(p-1)/3]; len(lg.Globals) != 15 || len(lg.CSC.IR) != 28 {
				t.Fatalf("P=%d: contig %d arrived as %d vertices, %d edges; want 15, 28", p, d, len(lg.Globals), len(lg.CSC.IR))
			}
		}
		mpi.MaxMessageBytes = 64
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("P=%d: local graphs under the limit differ from the unlimited run", p)
		}
	}
}

// TestCommunicateSequencesChunked exercises the 2^31-1 workaround path with
// a tiny limit.
func TestCommunicateSequencesChunked(t *testing.T) {
	old := mpi.MaxMessageBytes
	mpi.MaxMessageBytes = 64
	defer func() { mpi.MaxMessageBytes = old }()
	reads := make([][]byte, 12)
	for i := range reads {
		reads[i] = bytes.Repeat([]byte{"ACGT"[i%4]}, 50+i)
	}
	err := mpi.Run(4, func(c *mpi.Comm) {
		g := grid.New(c)
		store := fasta.FromGlobal(c, reads)
		full := make([]int32, len(reads))
		for i := range full {
			full[i] = int32(i % 4) // scatter reads across all ranks
		}
		assign := spmat.VecFromGlobal(g, full)
		seqs := CommunicateSequences(store, assign, false)
		for gid, seq := range seqs {
			if int(gid)%4 != c.Rank() {
				panic("read delivered to wrong rank")
			}
			if !bytes.Equal(seq, reads[gid]) {
				panic("read bytes corrupted")
			}
		}
		want := 0
		for i := range reads {
			if i%4 == c.Rank() {
				want++
			}
		}
		if len(seqs) != want {
			panic(fmt.Sprintf("rank %d got %d reads, want %d", c.Rank(), len(seqs), want))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFinishChecksReceivedTotals: what a source rank sent must be exactly what
// the replicated lengths of its announced ids demand. A short buffer used to
// die as an anonymous slice-bounds panic and a long one was silently ignored;
// both now name the source rank and the ids, on either protocol.
func TestFinishChecksReceivedTotals(t *testing.T) {
	reads := [][]byte{[]byte("ACGTACGTAC"), []byte("GGGGG"), []byte("TTTTTTT")}
	err := mpi.Run(1, func(c *mpi.Comm) {
		store := fasta.FromGlobal(c, reads)
		ids := [][]int32{{0, 2}}
		type received struct {
			words [][]uint64
			bufs  [][]byte
		}
		finish := func(got received) (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			keyReceived(store, ids, got.words, got.bufs)
			return ""
		}
		good := finish(received{bufs: [][]byte{[]byte("ACGTACGTACTTTTTTT")}})
		if good != "<nil>" {
			panic("exact buffer rejected: " + good)
		}
		words, _ := dna.PackAll([][]byte{reads[0], reads[2]})
		for name, got := range map[string]received{
			"short raw":    {bufs: [][]byte{[]byte("ACGTACGTACTTTTTT")}},
			"long raw":     {bufs: [][]byte{[]byte("ACGTACGTACTTTTTTTA")}},
			"short packed": {words: [][]uint64{words[:1]}},
			"long packed":  {words: [][]uint64{append(words, 0)}},
		} {
			msg := finish(got)
			for _, want := range []string{"rank 0 sent", "2 reads, ids 0…2", "demand"} {
				if !strings.Contains(msg, want) {
					panic(fmt.Sprintf("%s: panic %q lacks %q", name, msg, want))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
