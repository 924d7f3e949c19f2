package pipeline

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/dna"
	"repro/internal/readsim"
)

func TestRunRejectsNonSquareP(t *testing.T) {
	if _, err := Run(nil, Options{P: 3}); err == nil {
		t.Fatal("expected error for P=3")
	}
}

func TestRunEndToEndAllStagesTimed(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeConfig{Length: 20000, Seed: 71})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 12, MeanLen: 1800, Seed: 72}))
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	out, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Contigs) == 0 {
		t.Fatal("no contigs")
	}
	// Every Figure 5 stage must have been timed and carry work units.
	for _, name := range MainStages {
		if out.Stats.Timers.Dur(name) <= 0 {
			t.Fatalf("stage %s not timed", name)
		}
		if out.Stats.Timers.Get(name).SumWork <= 0 {
			t.Fatalf("stage %s has no work counter", name)
		}
	}
	for _, name := range ContigStages {
		if !slices.Contains(out.Stats.Timers.Names(), name) {
			t.Fatalf("contig sub-stage %s missing", name)
		}
	}
	if out.Stats.CommBytes <= 0 {
		t.Fatal("no communication recorded")
	}
	if out.Stats.NumContigs <= 0 || out.Stats.NumReads != len(reads) {
		t.Fatalf("stats: %+v", out.Stats)
	}
	// Genome round-trip (error-free input).
	fw, rc := string(genome), string(dna.RevComp(genome))
	for _, c := range out.Contigs {
		if !strings.Contains(fw, string(c.Seq)) && !strings.Contains(rc, string(c.Seq)) {
			t.Fatal("contig not a genome substring")
		}
	}
}

func TestPresetOptionsHighError(t *testing.T) {
	o := PresetOptions(readsim.HSapiensLike, 4)
	if o.K != 17 {
		t.Fatalf("H. sapiens preset must use k=17 (paper §5), got %d", o.K)
	}
	low := PresetOptions(readsim.CElegansLike, 4)
	if low.K != 31 || low.XDrop != 15 {
		t.Fatalf("low-error preset must use k=31, x=15 (paper §5), got k=%d x=%d", low.K, low.XDrop)
	}
}

func TestRunHighErrorPreset(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run in -short mode")
	}
	// A small H. sapiens-like run: 15% error, k=17. Success = some contigs
	// that map back to the genome region (exact substring no longer holds).
	ds := readsim.Generate(readsim.HSapiensLike, 60000, 75)
	opt := PresetOptions(readsim.HSapiensLike, 4)
	out, err := Run(readsim.Seqs(ds.Reads), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Contigs) == 0 {
		t.Fatal("no contigs at 15% error")
	}
	if len(out.Contigs[0].Seq) < 2000 {
		t.Fatalf("longest contig only %d bases", len(out.Contigs[0].Seq))
	}
}
