package pipeline

import (
	"strings"
	"testing"

	"repro/internal/dna"
	"repro/internal/readsim"
)

// TestEmptyAndDegenerateInputs: the pipeline must handle pathological
// inputs without deadlock or panic.
func TestEmptyAndDegenerateInputs(t *testing.T) {
	opt := DefaultOptions(4)
	opt.K = 15
	cases := map[string][][]byte{
		"no reads":      {},
		"one read":      {[]byte(strings.Repeat("ACGT", 200))},
		"short reads":   {[]byte("ACG"), []byte("TGCA"), []byte("AC")}, // all < k
		"two identical": {[]byte(strings.Repeat("ACGTT", 100)), []byte(strings.Repeat("ACGTT", 100))},
	}
	for name, reads := range cases {
		name, reads := name, reads
		t.Run(name, func(t *testing.T) {
			out, err := Run(reads, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(out.Contigs) != 0 {
				// Identical reads collapse by containment; nothing else can
				// form a ≥2-read contig here.
				t.Fatalf("%s: unexpected contigs %d", name, len(out.Contigs))
			}
		})
	}
}

// TestNoOverlapsAtAll: disjoint reads produce an empty contig set.
func TestNoOverlapsAtAll(t *testing.T) {
	var reads [][]byte
	for i := 0; i < 8; i++ {
		reads = append(reads, readsim.Genome(readsim.GenomeConfig{Length: 800, Seed: int64(100 + i)}))
	}
	opt := DefaultOptions(4)
	opt.K = 21
	out, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Contigs) != 0 || out.Stats.NumContigs != 0 {
		t.Fatalf("disjoint reads assembled: %d contigs", len(out.Contigs))
	}
}

// TestInvalidKPropagatesAsError: a rank panic (k out of range) must surface
// as an error, not hang the world.
func TestInvalidKPropagatesAsError(t *testing.T) {
	reads := [][]byte{[]byte(strings.Repeat("ACGT", 100))}
	opt := DefaultOptions(1)
	opt.K = 99 // > kmer.MaxK
	if _, err := Run(reads, opt); err == nil {
		t.Fatal("expected error for k=99")
	}
}

// TestRepeatGenomeCreatesBranchesButExactContigs: planted repeats longer
// than any read force branch vertices; contigs must break there but stay
// exact substrings of the reference (the §4.2 masking behaviour).
func TestRepeatGenomeCreatesBranchesButExactContigs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run in -short mode")
	}
	genome := readsim.Genome(readsim.GenomeConfig{
		Length: 30000, Seed: 201, RepeatCount: 2, RepeatLen: 4000,
	})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{
		Depth: 14, MeanLen: 2000, Seed: 202,
	}))
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	out, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.BranchVertices == 0 {
		t.Fatal("4 kbp repeats with 2 kbp reads must create branch vertices")
	}
	if len(out.Contigs) == 0 {
		t.Fatal("no contigs")
	}
	fw, rc := string(genome), string(dna.RevComp(genome))
	for i, c := range out.Contigs {
		if !strings.Contains(fw, string(c.Seq)) && !strings.Contains(rc, string(c.Seq)) {
			t.Fatalf("repeat-genome contig %d not an exact substring (%d bases)", i, len(c.Seq))
		}
	}
	t.Logf("repeats: %d branches, %d contigs, longest %d",
		out.Stats.BranchVertices, len(out.Contigs), len(out.Contigs[0].Seq))
}
