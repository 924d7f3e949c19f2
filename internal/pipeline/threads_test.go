package pipeline

import (
	"bytes"
	"testing"

	"repro/internal/readsim"
)

// TestThreadsDeterminism asserts the hybrid-parallelism contract: for both
// alignment backends, a run with 8 intra-rank workers produces byte-identical
// contigs AND identical per-backend work counters to the single-worker run.
// Work totals are schedule-invariant because the pairs each Alignment phase
// aligns are chosen serially, before the pool sees them, and each is aligned
// exactly once by exactly one worker's aligner — so the per-phase aligned-pair
// counts are thread-invariant too.
func TestThreadsDeterminism(t *testing.T) {
	size := 30000
	if testing.Short() {
		// Keep the race-detector CI lap fast; the full size runs in tier-1.
		size = 10000
	}
	ds := readsim.Generate(readsim.CElegansLike, size, 91)
	reads := readsim.Seqs(ds.Reads)
	for _, backend := range AlignBackends() {
		t.Run(backend, func(t *testing.T) {
			runAt := func(threads int) *Output {
				opt := PresetOptions(readsim.CElegansLike, 4)
				opt.AlignBackend = backend
				opt.Threads = threads
				out, err := Run(reads, opt)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			ref := runAt(1)
			if len(ref.Contigs) == 0 {
				t.Fatal("reference run produced no contigs")
			}
			got := runAt(8)
			if got.Stats.Threads != 8 || ref.Stats.Threads != 1 {
				t.Fatalf("threads not plumbed: ref=%d got=%d", ref.Stats.Threads, got.Stats.Threads)
			}
			if len(got.Contigs) != len(ref.Contigs) {
				t.Fatalf("contig count: %d at T=8 vs %d at T=1", len(got.Contigs), len(ref.Contigs))
			}
			for i := range ref.Contigs {
				if !bytes.Equal(ref.Contigs[i].Seq, got.Contigs[i].Seq) {
					t.Fatalf("contig %d differs between T=1 and T=8", i)
				}
			}
			if got.Stats.AlignedPairs != ref.Stats.AlignedPairs ||
				ref.Stats.AlignedPairs <= 0 || ref.Stats.AlignedPairs >= ref.Stats.CandidatePairs {
				t.Fatalf("aligned pairs: %d at T=1 vs %d at T=8, of %d candidates (want equal, some skipped)",
					ref.Stats.AlignedPairs, got.Stats.AlignedPairs, ref.Stats.CandidatePairs)
			}
			for _, stage := range append([]string{"CountKmer", "DetectOverlap", "Alignment"}, AlignmentPhases...) {
				w1 := ref.Stats.Timers.Get(stage).SumWork
				w8 := got.Stats.Timers.Get(stage).SumWork
				if w1 != w8 {
					t.Fatalf("%s work counter: %d at T=1 vs %d at T=8", stage, w1, w8)
				}
				if w1 <= 0 {
					t.Fatalf("%s work counter empty", stage)
				}
			}
		})
	}
}

// TestEffectiveThreadsResolution pins the auto-split rule: explicit values
// win, otherwise GOMAXPROCS/P clamped to ≥ 1.
func TestEffectiveThreadsResolution(t *testing.T) {
	if got := (Options{P: 4, Threads: 3}).EffectiveThreads(); got != 3 {
		t.Fatalf("explicit Threads=3 resolved to %d", got)
	}
	if got := (Options{P: 1 << 20}).EffectiveThreads(); got != 1 {
		t.Fatalf("huge P must clamp to 1 worker, got %d", got)
	}
	if got := (Options{}).EffectiveThreads(); got < 1 {
		t.Fatalf("zero options resolved to %d workers", got)
	}
}
