// Host-independent gates: the pipeline-level benchmarks whose work, traffic
// and allocation counters CI compares with ci/bench_baseline.json through
// cmd/benchguard. Run with
//
//	go test -run '^$' -bench . -benchtime=1x -benchmem .
//
// Nothing here reports a wall-clock or modeled-time column: benchmark/ (the
// measurement spine) owns every timing, RSS and throughput number, and
// cmd/experiments owns the paper's tables and figures (DESIGN.md §7). The
// one timing-derived metric is BenchmarkThreads' align_speedup_x, a ratio
// the nightly multi-core job asserts and no spine workload can (they all pin
// Threads=1).
package repro

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/quality"
	"repro/internal/readsim"
	"repro/internal/trace"
)

const benchSeed = 97

// Bench-scale genome sizes (bases): small enough for CI, large enough for
// hundreds of reads per dataset.
func benchSize(p readsim.Preset) int {
	if p == readsim.HSapiensLike {
		return 40000
	}
	return 60000
}

// benchRun generates the preset's pinned dataset and assembles it. Callers
// keep it inside the timed loop: the allocs_per_op baselines include the
// dataset generation.
func benchRun(b *testing.B, preset readsim.Preset, p int, backend string, threads int) (*pipeline.Output, *readsim.Dataset) {
	b.Helper()
	ds := readsim.Generate(preset, benchSize(preset), benchSeed)
	opt := pipeline.PresetOptions(preset, p)
	opt.AlignBackend = backend
	opt.Threads = threads
	out, err := pipeline.Run(readsim.Seqs(ds.Reads), opt)
	if err != nil {
		b.Fatal(err)
	}
	return out, ds
}

// identical reports byte-identity of two contig sets as a 0/1 metric.
func identical(a, b []core.Contig) float64 {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if string(a[i].Seq) != string(b[i].Seq) {
			return 0
		}
	}
	return 1
}

// BenchmarkBackends_ErrorRates runs both alignment backends through the FULL
// pipeline on a low-error and a high-error readsim preset and reports, per
// backend, the Alignment stage's work counter, the traffic counters and the
// contig quality (per internal/quality) of the resulting assembly. The
// expectation this gates: WFA's penalty-proportional work beats the x-drop
// band at 0.5% error and loses its edge at 15%, while contig quality stays
// within tolerance of the x-drop backend throughout.
func BenchmarkBackends_ErrorRates(b *testing.B) {
	for _, preset := range []readsim.Preset{readsim.CElegansLike, readsim.HSapiensLike} {
		for _, backend := range pipeline.AlignBackends() {
			b.Run(preset.String()+"/"+backend, func(b *testing.B) {
				// For a pinned seed the hot kernels allocate
				// near-deterministically, so an allocs/op regression means a
				// kernel lost its leanness.
				b.ReportAllocs()
				var out *pipeline.Output
				var ds *readsim.Dataset
				for i := 0; i < b.N; i++ {
					out, ds = benchRun(b, preset, 4, backend, 0)
				}
				b.StopTimer()
				b.ReportMetric(float64(out.Stats.Timers.Get("Alignment").SumWork), "align_cells")
				// Deterministic for the pinned seed and identical in
				// sync/async comm modes.
				b.ReportMetric(float64(out.Stats.CommBytes), "comm_bytes")
				b.ReportMetric(float64(out.Stats.CommMsgs), "comm_messages")
				seqs := make([][]byte, len(out.Contigs))
				for j, c := range out.Contigs {
					seqs[j] = c.Seq
				}
				rep := quality.Evaluate(ds.Genome, seqs)
				b.ReportMetric(rep.Completeness, "completeness_pct")
				b.ReportMetric(float64(rep.LongestContig), "longest_contig")
				b.ReportMetric(float64(rep.NumContigs), "contigs")
				b.ReportMetric(float64(rep.Misassemblies), "misassembled")
				b.ReportMetric(float64(rep.N50), "n50")
			})
		}
	}
}

// BenchmarkThreads is the intra-rank worker-pool sweep: the same preset at
// one simulated rank with 1/2/4/8 workers on the alignment/k-mer hot paths.
// Per worker count it reports the Alignment stage's speedup over the
// single-worker run (saturating at the host's core count; the nightly job
// asserts ≥2x at T=4), the schedule-invariant work counter, and whether the
// contigs are byte-identical to the T=1 run.
func BenchmarkThreads(b *testing.B) {
	const preset = readsim.CElegansLike
	var base *pipeline.Output // the T=1 run every other width compares against
	for _, th := range []int{1, 2, 4, 8} {
		b.Run("T="+strconv.Itoa(th), func(b *testing.B) {
			b.ReportAllocs()
			var out *pipeline.Output
			for i := 0; i < b.N; i++ {
				out, _ = benchRun(b, preset, 1, "", th)
			}
			b.StopTimer() // a -bench filter that skips T=1 pays for the reference here
			if th == 1 {
				base = out
			} else if base == nil {
				base, _ = benchRun(b, preset, 1, "", 1)
			}
			if d := out.Stats.Timers.Dur("Alignment"); d > 0 {
				b.ReportMetric(float64(base.Stats.Timers.Dur("Alignment"))/float64(d), "align_speedup_x")
			}
			b.ReportMetric(float64(out.Stats.Timers.Get("Alignment").SumWork), "align_cells")
			b.ReportMetric(float64(out.Stats.CommBytes), "comm_bytes")
			b.ReportMetric(float64(out.Stats.CommMsgs), "comm_messages")
			b.ReportMetric(identical(base.Contigs, out.Contigs), "contigs_identical")
		})
	}
}

// BenchmarkStageSweep pins the stage-graph engine's artifact-reuse claim: a
// TR-fuzz sweep resumed from one RunUntil(Alignment) snapshot must align
// every candidate pair exactly once, where N independent full runs align N
// times — so align_cells_ratio (swept / full) must stay well under 1 (CI
// asserts ≤ 0.5; with three sweep points it sits near 1/3), with contig
// sets identical point for point.
func BenchmarkStageSweep(b *testing.B) {
	ds := readsim.Generate(readsim.CElegansLike, 30000, benchSeed)
	reads := readsim.Seqs(ds.Reads)
	base := pipeline.PresetOptions(readsim.CElegansLike, 4)
	base.AlignBackend = pipeline.BackendWFA
	fuzzes := []int32{0, 150, 500}

	var sweptCells, fullCells int64
	same := 1.0
	for i := 0; i < b.N; i++ {
		sweptCells, fullCells = 0, 0
		var snap *trace.Summary
		eng, err := pipeline.Plan(base, pipeline.Observer{
			StageEnd: func(_ string, sum *trace.Summary, _ time.Duration) { snap = sum },
		})
		if err != nil {
			b.Fatal(err)
		}
		arts, err := eng.RunUntil(context.Background(), reads, pipeline.StageAlignment)
		if err != nil {
			b.Fatal(err)
		}
		sweptCells = snap.Get("Alignment").SumWork
		for _, fz := range fuzzes {
			opt := base
			opt.TRFuzz = fz
			swept, err := pipeline.Plan(opt)
			if err != nil {
				b.Fatal(err)
			}
			chain, err := swept.ResumeFrom(context.Background(), arts, pipeline.StageExtractContig)
			if err != nil {
				b.Fatal(err)
			}
			sweptOut, err := chain.Output()
			if err != nil {
				b.Fatal(err)
			}
			full, err := pipeline.Run(reads, opt)
			if err != nil {
				b.Fatal(err)
			}
			fullCells += full.Stats.Timers.Get("Alignment").SumWork
			same = min(same, identical(sweptOut.Contigs, full.Contigs))
		}
	}
	b.ReportMetric(float64(sweptCells), "align_cells_swept")
	b.ReportMetric(float64(fullCells), "align_cells_full")
	if fullCells > 0 {
		b.ReportMetric(float64(sweptCells)/float64(fullCells), "align_cells_ratio")
	}
	b.ReportMetric(same, "contigs_identical")
}
