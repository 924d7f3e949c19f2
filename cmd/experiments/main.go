// Command experiments regenerates every table and figure of the paper's
// evaluation (§5–6) on synthetic Table 2 dataset substitutes, printing
// markdown-ish tables to stdout.
//
//	experiments -exp all            # everything (several minutes)
//	experiments -exp fig4 -scale 0.5
//
// Experiments: env (Table 1), table2, fig4, fig5, fig6, table3, table4,
// contigphase (§6.1 claim), ablation, commoverlap (blocking vs nonblocking
// communication and the comm_overlap/comm_exposed split; self-checking).
//
// This command owns the paper's tables and figures only. Wall-clock,
// allocation, RSS and throughput numbers belong to benchmark/ (the spine);
// host-independent work, traffic and allocs_per_op gates belong to
// go test -bench + cmd/benchguard + ci/bench_baseline.json (DESIGN.md §7).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/elba"

	"repro/internal/align"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/polish"
	"repro/internal/quality"
	"repro/internal/readsim"
)

var (
	scale   = flag.Float64("scale", 1.0, "dataset size multiplier")
	seed    = flag.Int64("seed", 7, "dataset seed")
	exp     = flag.String("exp", "all", "env|table2|fig4|fig5|fig6|table3|table4|contigphase|ablation|commoverlap|all")
	network = flag.String("net", "aries", "network model: aries|infiniband")
	// common holds the -backend/-threads/-comm/-transport execution knobs
	// shared with cmd/elba (elba.Flags, registered in main).
	common elba.Flags
)

func net() perfmodel.Network {
	if *network == "infiniband" {
		return perfmodel.InfiniBand()
	}
	return perfmodel.Aries()
}

// Dataset sizes at scale 1 (bases). Chosen so a single pipeline run takes
// tens of seconds on a laptop; the scale factor versus the organisms of
// Table 2 is reported by Table2Row.
func sizeOf(p readsim.Preset) int {
	base := map[readsim.Preset]int{
		readsim.CElegansLike: 150000,
		readsim.OSativaLike:  200000,
		readsim.HSapiensLike: 80000,
	}[p]
	n := int(float64(base) * *scale)
	if n < 20000 {
		n = 20000
	}
	return n
}

var scalingP = []int{1, 4, 16, 36}

type experiment struct {
	name string
	run  func()
}

// experiments is the -exp menu, in print order.
var experiments = []experiment{
	{"env", envTable},
	{"table2", table2},
	{"fig4", func() {
		scalingFigure("Figure 4 (left): C. elegans-like strong scaling", readsim.CElegansLike)
		scalingFigure("Figure 4 (right): O. sativa-like strong scaling", readsim.OSativaLike)
	}},
	{"fig5", func() {
		breakdownFigure("Figure 5 (left): C. elegans-like breakdown", readsim.CElegansLike)
		breakdownFigure("Figure 5 (right): O. sativa-like breakdown", readsim.OSativaLike)
	}},
	{"fig6", func() {
		scalingFigure("Figure 6 (left): H. sapiens-like strong scaling", readsim.HSapiensLike)
		breakdownFigure("Figure 6 (right): H. sapiens-like breakdown", readsim.HSapiensLike)
	}},
	{"table3", table3},
	{"table4", table4},
	{"contigphase", contigPhase},
	{"ablation", ablation},
	{"commoverlap", commOverlapTable},
}

func main() {
	log.SetFlags(0)
	common.Register(flag.CommandLine)
	flag.Parse()
	// Judge the shared flags once, before minutes of runs: every option set
	// below is a preset base with these same four values applied.
	if err := presetOptions(readsim.CElegansLike, 1).Validate(); err != nil {
		log.Fatal(err)
	}
	which := strings.Split(*exp, ",")
	for _, w := range which {
		if w != "all" && !slices.ContainsFunc(experiments, func(e experiment) bool { return e.name == w }) {
			log.Fatalf("unknown -exp %q (want %s)", w, flag.Lookup("exp").Usage)
		}
	}
	for _, e := range experiments {
		if slices.Contains(which, "all") || slices.Contains(which, e.name) {
			e.run()
		}
	}
}

func header(title string) {
	fmt.Printf("\n## %s\n\n", title)
}

// alignOf derives the aligner parameters from pipeline options.
func alignOf(o pipeline.Options) align.Params { return align.DefaultParams(o.XDrop) }

// envTable is the Table 1 substitute: the simulated platform.
func envTable() {
	header("Table 1 substitute: evaluation platform")
	fmt.Printf("| property | value |\n|---|---|\n")
	fmt.Printf("| host CPUs | %d |\n", runtime.NumCPU())
	fmt.Printf("| GOMAXPROCS | %d |\n", runtime.GOMAXPROCS(0))
	fmt.Printf("| Go | %s %s/%s |\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
	n := net()
	fmt.Printf("| network model | %s: %.1fµs latency, %.0f GB/s per-rank bandwidth |\n",
		*network, n.Latency*1e6, n.Bandwidth/1e9)
	fmt.Printf("| ranks | simulated goroutine ranks on a √P×√P grid |\n")
}

// table2 regenerates the dataset table.
func table2() {
	header("Table 2: datasets (synthetic substitutes)")
	fmt.Printf("| label | depth | reads | mean len | input (MB) | genome (Mb) | error %% | scale vs paper |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	for _, p := range []readsim.Preset{readsim.OSativaLike, readsim.CElegansLike, readsim.HSapiensLike} {
		ds := readsim.Generate(p, sizeOf(p), *seed)
		var bases int64
		for _, r := range ds.Reads {
			bases += int64(len(r.Seq))
		}
		fmt.Printf("| %s | %.0f | %d | %d | %.2f | %.3f | %.1f | 1/%.0f |\n",
			ds.Name, ds.Depth, len(ds.Reads), ds.MeanLen,
			float64(bases)/1e6, float64(len(ds.Genome))/1e6, ds.ErrorRate*100, ds.ScaleFactor)
	}
	fmt.Println("\nPaper: O. sativa 30×/638K reads/19,695bp/500Mb/0.5%; " +
		"C. elegans 40×/420K/14,550/100Mb/0.5%; H. sapiens 10×/4.4M/7,401/3.2Gb/15%.")
}

// runCache memoizes pipeline runs: several figures share the same (preset,
// P, backend) run, and the runs dominate the suite's wall time.
var runCache = map[string]*pipeline.Output{}

// presetOptions is the preset's parameter set at P ranks under the shared
// -backend, -threads, -comm and -transport flags — the same Flags.Apply path
// cmd/elba takes, so every table runs on the transport the flag names.
func presetOptions(preset readsim.Preset, p int) pipeline.Options {
	opt := pipeline.PresetOptions(preset, p)
	if err := common.Apply(&opt); err != nil {
		log.Fatal(err)
	}
	return opt
}

// runPreset assembles one preset dataset at P ranks under the shared flags
// (cached).
func runPreset(preset readsim.Preset, p int) (*pipeline.Output, *readsim.Dataset) {
	return runOptions(preset, presetOptions(preset, p))
}

// runOptions assembles the preset's dataset under opt (cached).
func runOptions(preset readsim.Preset, opt pipeline.Options) (*pipeline.Output, *readsim.Dataset) {
	ds := readsim.Generate(preset, sizeOf(preset), *seed)
	// Key on the resolved worker count so an auto-split run and an explicit
	// run at the same effective width share one cache entry.
	key := fmt.Sprintf("%d/%d/%d/%v", int(preset), opt.P, opt.EffectiveThreads(), opt.Async)
	if out, ok := runCache[key]; ok {
		return out, ds
	}
	out, err := pipeline.Run(readsim.Seqs(ds.Reads), opt)
	if err != nil {
		log.Fatalf("pipeline P=%d: %v", opt.P, err)
	}
	runCache[key] = out
	return out, ds
}

// calibration derives per-stage rates from a P=1, Threads=1 run of the
// preset: perfmodel rates mean single-worker throughput, so the calibration
// run pins Threads rather than inheriting -threads or the GOMAXPROCS
// auto-split (StageTimeT would otherwise divide an already-threaded rate by
// the Amdahl speedup a second time).
func calibration(preset readsim.Preset, stages []string) perfmodel.Calibration {
	opt := presetOptions(preset, 1)
	opt.Threads = 1
	base, _ := runOptions(preset, opt)
	return perfmodel.Calibrate(base.Stats.Timers, stages)
}

// scalingFigure reproduces a strong-scaling curve: modeled distributed time
// (work/comm counters + calibrated rates), wall time, and efficiency.
func scalingFigure(title string, preset readsim.Preset) {
	header(title)
	stages := pipeline.MainStages
	var rows []perfmodel.ScalingRow
	cal := calibration(preset, stages)
	var baseT float64
	for _, p := range scalingP {
		out, _ := runPreset(preset, p)
		t := perfmodel.Total(out.Stats.Timers, stages, cal, net())
		if p == scalingP[0] {
			baseT = t
		}
		rows = append(rows, perfmodel.ScalingRow{
			P:          p,
			Modeled:    t,
			Wall:       out.Stats.WallTime,
			Efficiency: perfmodel.Efficiency(scalingP[0], baseT, p, t),
			CommBytes:  out.Stats.CommBytes,
		})
	}
	fmt.Print(perfmodel.FormatScaling(rows))
	fmt.Println("\nModeled time = maxWork/rate + comm model (rates calibrated at P=1; see perfmodel).")
	fmt.Println("Paper: 75–80% parallel efficiency at 128 nodes on Cori for these datasets.")
}

// breakdownFigure reproduces the per-stage share bars of Figures 5/6 from
// modeled stage times at each P.
func breakdownFigure(title string, preset readsim.Preset) {
	header(title)
	stages := pipeline.MainStages
	cal := calibration(preset, stages)
	fmt.Printf("| P | %s |\n", strings.Join(stages, " | "))
	fmt.Printf("|---|%s\n", strings.Repeat("---|", len(stages)))
	for _, p := range scalingP {
		out, _ := runPreset(preset, p)
		total := perfmodel.Total(out.Stats.Timers, stages, cal, net())
		cells := make([]string, len(stages))
		for i, s := range stages {
			st := perfmodel.StageTime(out.Stats.Timers, s, cal, net())
			cells[i] = fmt.Sprintf("%.3fs (%.0f%%)", st, 100*st/total)
		}
		fmt.Printf("| %d | %s |\n", p, strings.Join(cells, " | "))
	}
	fmt.Println("\nPaper: CountKmer/DetectOverlap/Alignment scale nearly linearly; " +
		"TrReduction and ExtractContig are latency-bound at high P.")
}

// table3 compares ELBA against the shared-memory comparator.
func table3() {
	header("Table 3: speedup over shared-memory assembler")
	fmt.Printf("| tool | organism | runtime (s) | ranks/threads | ELBA speedup (modeled) |\n")
	fmt.Printf("|---|---|---|---|---|\n")
	for _, preset := range []readsim.Preset{readsim.CElegansLike, readsim.OSativaLike} {
		ds := readsim.Generate(preset, sizeOf(preset), *seed)
		reads := readsim.Seqs(ds.Reads)
		opt := pipeline.PresetOptions(preset, 1)
		bcfg := baseline.Config{
			K: opt.K, ReliableLow: opt.ReliableLow, ReliableHigh: opt.ReliableHigh,
			Align: alignOf(opt), MinOverlap: opt.MinOverlap,
			MinScoreFrac: opt.MinScoreFrac, MaxOverhang: opt.MaxOverhang,
			Threads: runtime.NumCPU(),
		}
		t0 := time.Now()
		bres := baseline.BestOverlapAssemble(reads, bcfg)
		bTime := time.Since(t0).Seconds()

		stages := pipeline.MainStages
		cal := calibration(preset, stages)
		var speeds []string
		for _, p := range []int{scalingP[0], scalingP[len(scalingP)-1]} {
			out, err := pipeline.Run(reads, presetOptions(preset, p))
			if err != nil {
				log.Fatal(err)
			}
			t := perfmodel.Total(out.Stats.Timers, stages, cal, net())
			speeds = append(speeds, fmt.Sprintf("%.1f× (P=%d)", bTime/t, p))
		}
		fmt.Printf("| BestOverlap (greedy BOG) | %s | %.1f | %d threads | %s |\n",
			ds.Name, bTime, bcfg.Threads, strings.Join(speeds, ", "))
		_ = bres
	}
	fmt.Println("\nPaper: ELBA is 3–15× (Hifiasm) and 11–58× (HiCanu) faster on C. elegans, " +
		"18–36× and 78–159× on O. sativa, with 18–128 nodes vs one multithreaded node.")
}

// table4 compares assembly quality.
func table4() {
	header("Table 4: assembly quality")
	fmt.Printf("| tool | organism | completeness %% | longest contig | contigs | misassembled |\n")
	fmt.Printf("|---|---|---|---|---|---|\n")
	for _, preset := range []readsim.Preset{readsim.OSativaLike, readsim.CElegansLike} {
		out, ds := runPreset(preset, 4)
		seqs := make([][]byte, len(out.Contigs))
		for i, c := range out.Contigs {
			seqs[i] = c.Seq
		}
		rep := quality.Evaluate(ds.Genome, seqs)
		fmt.Printf("| ELBA (this repro) | %s | %.2f | %d | %d | %d |\n",
			ds.Name, rep.Completeness, rep.LongestContig, rep.NumContigs, rep.Misassemblies)

		opt := pipeline.PresetOptions(preset, 1)
		bcfg := baseline.Config{
			K: opt.K, ReliableLow: opt.ReliableLow, ReliableHigh: opt.ReliableHigh,
			Align: alignOf(opt), MinOverlap: opt.MinOverlap,
			MinScoreFrac: opt.MinScoreFrac, MaxOverhang: opt.MaxOverhang,
			Threads: runtime.NumCPU(),
		}
		bres := baseline.BestOverlapAssemble(readsim.Seqs(ds.Reads), bcfg)
		bseqs := make([][]byte, len(bres.Contigs))
		for i, c := range bres.Contigs {
			bseqs[i] = c.Seq
		}
		brep := quality.Evaluate(ds.Genome, bseqs)
		fmt.Printf("| BestOverlap (greedy BOG) | %s | %.2f | %d | %d | %d |\n",
			ds.Name, brep.Completeness, brep.LongestContig, brep.NumContigs, brep.Misassemblies)

		// The paper's comparators run polishing stages that ELBA lacks
		// (§6.2): the polished baseline shows the same fewer/longer-contig
		// effect.
		pol := polish.Merge(bres.Contigs, polish.DefaultConfig())
		pseqs := make([][]byte, len(pol))
		for i, c := range pol {
			pseqs[i] = c.Seq
		}
		prep := quality.Evaluate(ds.Genome, pseqs)
		fmt.Printf("| BestOverlap + polish | %s | %.2f | %d | %d | %d |\n",
			ds.Name, prep.Completeness, prep.LongestContig, prep.NumContigs, prep.Misassemblies)
	}
	fmt.Println("\nPaper (O. sativa): ELBA 37.09%/0.172Mb/6411/2; Hifiasm 26.94%/7.08Mb/1661/1; " +
		"HiCanu 25.94%/37.5Mb/168/2. (C. elegans): ELBA 98.93%/0.313Mb/4287/5; " +
		"Hifiasm 99.96%/6.44Mb/133/0; HiCanu 99.90%/18.3Mb/32/2. The comparators' " +
		"polishing is the source of their fewer/longer contigs (§6.2).")
}

// commOverlapTable is the sync-vs-async head-to-head: the same dataset
// assembled with blocking collectives and with the nonblocking layer,
// comparing per-stage traffic, its comm_overlap/comm_exposed split, and the
// modeled stage times under the perfmodel overlap term. The two runs must
// produce bit-identical contigs and identical byte/message counters; the
// only modeled difference is the communication the async schedule hides
// behind computation.
func commOverlapTable() {
	header("Compute/communication overlap: blocking vs nonblocking")
	preset := readsim.CElegansLike
	const p = 16
	stages := append(append([]string{}, pipeline.MainStages...), pipeline.ContigStages...)
	cal := calibration(preset, stages)
	opt := presetOptions(preset, p)
	opt.Async = false
	syncOut, _ := runOptions(preset, opt)
	opt.Async = true
	asyncOut, ds := runOptions(preset, opt)

	if !sameContigs(syncOut.Contigs, asyncOut.Contigs) {
		log.Fatalf("commoverlap: contigs differ between blocking and nonblocking runs")
	}
	if syncOut.Stats.CommBytes != asyncOut.Stats.CommBytes || syncOut.Stats.CommMsgs != asyncOut.Stats.CommMsgs {
		log.Fatalf("commoverlap: traffic differs between modes: %d/%d bytes, %d/%d msgs",
			syncOut.Stats.CommBytes, asyncOut.Stats.CommBytes, syncOut.Stats.CommMsgs, asyncOut.Stats.CommMsgs)
	}

	fmt.Printf("dataset %s, P=%d, backend=%s; %d reads, %.2f MB traffic, %d messages (identical in both modes)\n\n",
		ds.Name, p, common.Backend, asyncOut.Stats.NumReads, float64(asyncOut.Stats.CommBytes)/1e6, asyncOut.Stats.CommMsgs)
	fmt.Printf("| stage | comm (MB) | msgs | overlap (MB) | exposed (MB) | modeled sync (ms) | modeled async (ms) | hidden |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	var tSync, tAsync float64
	for _, s := range stages {
		es := syncOut.Stats.Timers.Get(s)
		ea := asyncOut.Stats.Timers.Get(s)
		if ea.SumOverlapBytes+ea.SumExposedBytes() != ea.SumBytes {
			log.Fatalf("commoverlap: %s overlap+exposed != total (%d+%d != %d)",
				s, ea.SumOverlapBytes, ea.SumExposedBytes(), ea.SumBytes)
		}
		if es.SumOverlapBytes != 0 {
			log.Fatalf("commoverlap: blocking run reports %d overlap bytes in %s", es.SumOverlapBytes, s)
		}
		ms := 1000 * perfmodel.StageTime(syncOut.Stats.Timers, s, cal, net())
		ma := 1000 * perfmodel.StageTime(asyncOut.Stats.Timers, s, cal, net())
		// CG:* sub-stages nest inside ExtractContig: keep them out of the
		// totals but show their split.
		if !strings.HasPrefix(s, "CG:") {
			tSync += ms
			tAsync += ma
		}
		fmt.Printf("| %s | %.2f | %d | %.2f | %.2f | %.2f | %.2f | %.0f%% |\n",
			s, float64(ea.SumBytes)/1e6, ea.MaxMsgs,
			float64(ea.SumOverlapBytes)/1e6, float64(ea.SumExposedBytes())/1e6,
			ms, ma, 100*(1-safeDiv(ma, ms)))
	}
	fmt.Printf("| **pipeline total** | | | | | %.2f | %.2f | %.0f%% |\n", tSync, tAsync, 100*(1-safeDiv(tAsync, tSync)))
	fmt.Printf("\nwall: sync %s, async %s (simulated-rank wall clock; the modeled columns are the scaling claim)\n",
		syncOut.Stats.WallTime.Round(time.Millisecond), asyncOut.Stats.WallTime.Round(time.Millisecond))
	fmt.Println("Modeled async time per stage: max(compute, overlappable comm) + exposed comm; " +
		"sync charges compute + all comm (perfmodel.StageTimeT).")
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

// sameContigs reports byte-identity of two contig sets.
func sameContigs(a, b []core.Contig) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Seq, b[i].Seq) {
			return false
		}
	}
	return true
}

// contigPhase verifies the §6.1 claims: the induced subgraph step dominates
// contig generation (65–85%) and ExtractContig stays ≤ 5% of the total.
// Shares come from the performance model (the claim is about communication
// cost at scale, which the simulator's measured durations understate).
func contigPhase() {
	header("§6.1 claims: contig-phase breakdown")
	cal := calibration(readsim.CElegansLike,
		append(append([]string{}, pipeline.MainStages...), pipeline.ContigStages...))
	fmt.Printf("| P | induced subgraph (+seq comm) share of contig phase | ExtractContig share of total |\n|---|---|---|\n")
	for _, p := range scalingP[1:] {
		out, _ := runPreset(readsim.CElegansLike, p)
		var phase float64
		for _, s := range pipeline.ContigStages {
			phase += perfmodel.StageTime(out.Stats.Timers, s, cal, net())
		}
		induced := perfmodel.StageTime(out.Stats.Timers, "CG:InducedSubgraph", cal, net()) +
			perfmodel.StageTime(out.Stats.Timers, "CG:SequenceComm", cal, net())
		extract := perfmodel.StageTime(out.Stats.Timers, "ExtractContig", cal, net())
		total := perfmodel.Total(out.Stats.Timers, pipeline.MainStages, cal, net())
		fmt.Printf("| %d | %.0f%% | %.1f%% |\n", p, 100*induced/phase, 100*extract/total)
	}
	fmt.Println("\nPaper: induced subgraph (incl. sequence communication) is 65–85% of contig " +
		"generation; ExtractContig never exceeds 5% of the pipeline.")
}

// ablation exercises the design choices DESIGN.md calls out.
func ablation() {
	header("Ablation: LPT vs unsorted greedy partitioning")
	rng := rand.New(rand.NewSource(*seed))
	// Contig-size-like distribution: many small, few large (power-lawish).
	sizes := make([]int64, 4000)
	for i := range sizes {
		v := rng.ExpFloat64() * 20
		sizes[i] = int64(v*v) + 2
	}
	fmt.Printf("| P | LPT makespan | greedy makespan | lower bound | LPT/LB | greedy/LB |\n|---|---|---|---|---|---|\n")
	for _, p := range []int{16, 64, 256, 1024} {
		_, l1 := partition.LPT(sizes, p)
		_, l2 := partition.Greedy(sizes, p)
		lb := partition.LowerBound(sizes, p)
		m1, m2 := partition.Makespan(l1), partition.Makespan(l2)
		fmt.Printf("| %d | %d | %d | %d | %.3f | %.3f |\n",
			p, m1, m2, lb, float64(m1)/float64(lb), float64(m2)/float64(lb))
	}

	header("Ablation: transitive-reduction fuzz")
	ds := readsim.Generate(readsim.CElegansLike, sizeOf(readsim.CElegansLike)/2, *seed)
	for _, fuzz := range []int32{0, 150, 500} {
		opt := presetOptions(readsim.CElegansLike, 4)
		opt.TRFuzz = fuzz
		out, err := pipeline.Run(readsim.Seqs(ds.Reads), opt)
		if err != nil {
			log.Fatal(err)
		}
		longest := 0
		if len(out.Contigs) > 0 {
			longest = len(out.Contigs[0].Seq)
		}
		fmt.Printf("fuzz=%4d: TR removed %6d edges in %d iters; branches=%4d contigs=%4d longest=%d\n",
			fuzz, out.Stats.TR.EdgesRemoved, out.Stats.TR.Iterations,
			out.Stats.BranchVertices, out.Stats.NumContigs, longest)
	}
	fmt.Fprintln(os.Stdout)
}
