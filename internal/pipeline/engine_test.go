package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/readsim"
	"repro/internal/trace"
)

func testReads(length int, seed int64) [][]byte {
	genome := readsim.Genome(readsim.GenomeConfig{Length: length, Seed: seed})
	return readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 12, MeanLen: 1500, Seed: seed + 1}))
}

// TestRunTotalsAreRowSums: on a cold in-process run every counted message is
// sent inside some stage's row — FastaReader's grid splits and the contig
// gather included, the accounting itself adding none — so the world's
// counters, the run's totals and the sum of its top-level rows agree.
func TestRunTotalsAreRowSums(t *testing.T) {
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	eng, err := Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunUntil(context.Background(), testReads(8000, 619), StageExtractContig)
	if err != nil {
		t.Fatal(err)
	}
	out, err := arts.Output()
	if err != nil {
		t.Fatal(err)
	}
	if w := arts.World; w.TotalBytes() != out.Stats.CommBytes || w.TotalMsgs() != out.Stats.CommMsgs {
		t.Fatalf("world counted %d B / %d msgs, run totals %d B / %d msgs",
			w.TotalBytes(), w.TotalMsgs(), out.Stats.CommBytes, out.Stats.CommMsgs)
	}
	assertRowsSumToTotals(t, out, "cold run")
	if out.Stats.Timers.Get(StageFastaReader).SumMsgs == 0 {
		t.Fatal("FastaReader's grid construction has no row")
	}
}

// TestResumeSweepReusesOverlapArtifacts pins the parameter-sweep contract:
// one post-Alignment snapshot resumed under several TR configurations must
// (a) leave the snapshot reusable, (b) match a dedicated full run of each
// configuration contig for contig, and (c) perform the alignment work
// exactly once across the whole sweep.
func TestResumeSweepReusesOverlapArtifacts(t *testing.T) {
	reads := testReads(15000, 603)
	base := DefaultOptions(4)
	base.K = 21
	base.XDrop = 25
	eng, err := Plan(base)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunUntil(context.Background(), reads, StageAlignment)
	if err != nil {
		t.Fatal(err)
	}
	alignOnce := arts.Aggregate().Get("Alignment").SumWork
	if alignOnce <= 0 {
		t.Fatal("no alignment work recorded in the snapshot")
	}

	fuzzes := []int32{0, 150, 500}
	for _, fuzz := range fuzzes {
		opt := base
		opt.TRFuzz = fuzz
		swept, err := Plan(opt)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := swept.ResumeFrom(context.Background(), arts, StageExtractContig)
		if err != nil {
			t.Fatalf("fuzz=%d: %v", fuzz, err)
		}
		sweptOut, err := chain.Output()
		if err != nil {
			t.Fatal(err)
		}
		full, err := Run(reads, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRun(t, full, sweptOut, fmt.Sprintf("fuzz=%d swept vs full", fuzz))
		// The resumed chain carries the snapshot's alignment counters but ran
		// no new alignment: its align work must equal the single execution.
		if got := sweptOut.Stats.Timers.Get("Alignment").SumWork; got != alignOnce {
			t.Fatalf("fuzz=%d: resumed chain reports %d align work, snapshot had %d", fuzz, got, alignOnce)
		}
		if sweptOut.Stats.TR.Products <= 0 && fuzz > 0 {
			t.Fatalf("fuzz=%d: TR ran no products", fuzz)
		}
	}
	// Snapshot unchanged: still resumable, still parked after Alignment.
	if got := arts.Stage(); got != StageAlignment {
		t.Fatalf("snapshot advanced to %q during the sweep", got)
	}
}

// TestCancellationMidAlignment cancels the context the moment the Alignment
// stage starts: RunUntil must return ctx.Err() and every simulated rank
// goroutine (and posted-receive matcher) must unwind — checked against the
// process goroutine count.
func TestCancellationMidAlignment(t *testing.T) {
	reads := testReads(15000, 605)
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := Observer{StageStart: func(stage string, _, _ int) {
		if stage == StageAlignment {
			cancel()
		}
	}}
	eng, err := Plan(opt, obs)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunUntil(ctx, reads, StageExtractContig)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if arts != nil {
		t.Fatal("cancelled run returned artifacts")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("rank goroutines leaked after cancellation: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelledArtifactsAreDead: a snapshot whose world was cancelled must
// refuse to resume with a useful error.
func TestCancelledArtifactsAreDead(t *testing.T) {
	reads := testReads(12000, 607)
	opt := DefaultOptions(1)
	opt.K = 21
	opt.XDrop = 25
	eng, err := Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunUntil(context.Background(), reads, StageCountKmer)
	if err != nil {
		t.Fatal(err)
	}
	arts.World.Cancel(errors.New("operator abort"))
	if _, err := eng.ResumeFrom(context.Background(), arts, StageExtractContig); err == nil ||
		!strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("resume on cancelled world: err = %v", err)
	}
}

// TestObserverSequence: observers see every stage start and end in graph
// order, with the finished stage's aggregate available at StageEnd.
func TestObserverSequence(t *testing.T) {
	reads := testReads(12000, 609)
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	var starts, ends []string
	obs := Observer{
		StageStart: func(stage string, i, n int) {
			if n != len(StageNames()) {
				t.Errorf("StageStart total = %d, want %d", n, len(StageNames()))
			}
			starts = append(starts, stage)
		},
		StageEnd: func(stage string, sum *trace.Summary, wall time.Duration) {
			if wall <= 0 {
				t.Errorf("stage %s: non-positive wall time", stage)
			}
			if stage == StageAlignment && sum.Get("Alignment").SumWork <= 0 {
				t.Errorf("Alignment StageEnd aggregate has no work")
			}
			ends = append(ends, stage)
		},
	}
	eng, err := Plan(opt, obs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), reads); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(StageNames(), ",")
	if got := strings.Join(starts, ","); got != want {
		t.Fatalf("StageStart order %q, want %q", got, want)
	}
	if got := strings.Join(ends, ","); got != want {
		t.Fatalf("StageEnd order %q, want %q", got, want)
	}
}

// TestEngineAPIErrors covers the engine's misuse surface.
func TestEngineAPIErrors(t *testing.T) {
	opt := DefaultOptions(4)
	eng, err := Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunUntil(context.Background(), nil, "NoSuchStage"); err == nil {
		t.Fatal("unknown stage accepted")
	}
	arts, err := eng.RunUntil(context.Background(), [][]byte{[]byte(strings.Repeat("ACGT", 200))}, StageAlignment)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ResumeFrom(context.Background(), arts, StageCountKmer); err == nil {
		t.Fatal("resume to an already-complete stage accepted")
	}
	other, err := Plan(DefaultOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ResumeFrom(context.Background(), arts, StageExtractContig); err == nil {
		t.Fatal("resume with mismatched P accepted")
	}
}
