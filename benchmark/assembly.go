package main

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/quality"
	"repro/internal/readsim"
	"repro/internal/trace"
)

// Every assembly and layout workload runs the same machine shape.
const (
	benchP       = 4
	benchThreads = 1
)

// assemblyInput is one generated assembly problem.
type assemblyInput struct {
	Genome []byte
	Reads  [][]byte
	Opt    pipeline.Options
}

// assemblySpec describes one full-pipeline workload.
type assemblySpec struct {
	Name    string
	Why     string
	Backend string
	// Floor is the completeness a correct assembly clears on every seed;
	// it sits well under the measured values (README) so that only a broken
	// assembly, not an unlucky seed, trips it.
	Floor float64
	Gen   func(seed int64, scale float64) assemblyInput
}

func pinned(opt pipeline.Options, backend string) pipeline.Options {
	opt.AlignBackend = backend
	opt.Threads = benchThreads
	opt.Async = true
	return opt
}

// lowErrInput is the ROADMAP's reference configuration: the C. elegans-like
// preset (0.5% error, depth 40, ≈800 reads whatever the size).
func lowErrInput(size int) func(int64, float64) assemblyInput {
	return func(seed int64, scale float64) assemblyInput {
		ds := readsim.Generate(readsim.CElegansLike, int(float64(size)*scale), seed)
		return assemblyInput{ds.Genome, readsim.Seqs(ds.Reads),
			pinned(pipeline.PresetOptions(readsim.CElegansLike, benchP), pipeline.BackendWFA)}
	}
}

// modErrInput is the 3%-error generator: depth 30, mean length 3000, one
// planted repeat per 60 kb, default options.
func modErrInput(size int, backend string) func(int64, float64) assemblyInput {
	return func(seed int64, scale float64) assemblyInput {
		n := int(float64(size) * scale)
		genome := readsim.Genome(readsim.GenomeConfig{Length: n, Seed: seed, RepeatCount: n / 60000, RepeatLen: 4500})
		reads := readsim.Simulate(genome, readsim.ReadConfig{Depth: 30, MeanLen: 3000, ErrorRate: 0.03, Seed: seed + 1})
		return assemblyInput{genome, readsim.Seqs(reads), pinned(pipeline.DefaultOptions(benchP), backend)}
	}
}

var assemblySpecs = []assemblySpec{
	{
		Name: "lowerr-wfa", Backend: pipeline.BackendWFA, Floor: 80, Gen: lowErrInput(30000),
		Why: "reference configuration (0.5% error): spmat+overlap SpGEMM candidate detection does ~3/4 of the work, wfa ~1/5, kmer the rest, tr/core ~0",
	},
	{
		Name: "moderr-wfa", Backend: pipeline.BackendWFA, Floor: 80, Gen: modErrInput(40000, pipeline.BackendWFA),
		Why: "3% error: the wfa aligner does ~3/4 and SpGEMM ~1/5, so an aligner change shows here and barely on lowerr-wfa, an SpGEMM change the reverse",
	},
	{
		Name: "moderr-xdrop", Backend: pipeline.BackendXDrop, Floor: 80, Gen: modErrInput(20000, pipeline.BackendXDrop),
		Why: "3% error through the x-drop DP (~90% of the work, the allocation-heavy path): the second backend behind the Aligner interface, so shared-scratch changes that help one and hurt the other show",
	},
}

func contigSeqs(cs []core.Contig) [][]byte {
	out := make([][]byte, len(cs))
	for i, c := range cs {
		out[i] = c.Seq
	}
	return out
}

// stageClock stamps pipeline.Observer callbacks with the benchmark's clock.
type stageClock struct {
	started time.Time
	Dur     map[string][]float64 // stage → one duration per observed run
}

func (sc *stageClock) observer() pipeline.Observer {
	return pipeline.Observer{
		StageStart: func(string, int, int) { sc.started = time.Now() },
		StageEnd: func(stage string, _ *trace.Summary, _ time.Duration) {
			sc.Dur[stage] = append(sc.Dur[stage], time.Since(sc.started).Seconds())
		},
	}
}

func (sp assemblySpec) workload() workload {
	return workload{Name: sp.Name, Why: sp.Why, Run: sp.run}
}

func (sp assemblySpec) run(cfg runConfig) *runRecord {
	rec := newRecord(sp.Name, cfg)
	if cfg.Traced {
		setWireProbes(rec)
	}
	in, setupS, _ := timeSetups(func() (assemblyInput, error) { return sp.Gen(cfg.Seed, cfg.Scale), nil })

	clock := &stageClock{Dur: map[string][]float64{}}
	var last *pipeline.Output
	var tracedWall, plainWall []float64
	ops := 0
	op := func(timed bool) (opSample, error) {
		// A traced run alternates observed and plain operations, so the
		// tracing overhead is a ratio of two medians from one process.
		observed := cfg.Traced && timed && ops%2 == 0
		if timed {
			ops++
		}
		var observers []pipeline.Observer
		if observed {
			observers = append(observers, clock.observer())
		}
		eng, err := pipeline.Plan(in.Opt, observers...)
		if err != nil {
			return opSample{}, err
		}
		var out *pipeline.Output
		s, err := measured(func() error {
			out, err = eng.Run(context.Background(), in.Reads)
			return err
		})
		if err != nil {
			return s, err
		}
		if err := rec.sameContigs(contigSeqs(out.Contigs)); err != nil {
			return s, err
		}
		switch {
		case observed:
			tracedWall = append(tracedWall, s.Wall)
		case timed:
			plainWall = append(plainWall, s.Wall)
		}
		last = out
		return s, nil
	}
	minOps := 1
	if cfg.Traced {
		minOps = 2 // one observed, one plain
	}
	samples, warmS := rec.opLoop(cfg.Seconds, 1, minOps, 0, op)
	rss := peakRSSMB()
	if last == nil {
		return rec.finish()
	}

	rep := quality.Evaluate(in.Genome, contigSeqs(last.Contigs))
	if rep.Misassemblies != 0 {
		rec.fail("%d misassembled contigs", rep.Misassemblies)
	}
	if rep.Completeness < sp.Floor {
		rec.fail("completeness %.2f%% under the %.0f%% floor", rep.Completeness, sp.Floor)
	}
	st := last.Stats
	rec.CommBytes, rec.CommMsgs = st.CommBytes, st.CommMsgs

	if !cfg.Traced {
		rec.set("setup_s", setupS+warmS)
		rec.setCosts(samples)
		rec.set("peak_rss_mb", rss)
		rec.set("completeness_pct", rep.Completeness)
		rec.set("contig_n50", float64(rep.N50))
		return rec.finish()
	}

	sp.setLayers(rec, st, clock)
	rec.set("trace_overhead_frac", ratio(median(tracedWall), median(plainWall))-1)
	if sp.Name == "lowerr-wfa" {
		// The single-threaded reference. Ranks exceed cores on the usual
		// host, so this is a reference point, not a scaling efficiency.
		p1 := in.Opt
		p1.P = 1
		s, err := measured(func() error {
			_, err := pipeline.Run(in.Reads, p1)
			return err
		})
		if err != nil {
			rec.fail("P=1 reference run: %v", err)
		}
		rec.set("pipeline.p1_wall_s", s.Wall)
	}
	return rec.finish()
}

// setLayers fills the per-layer metrics of an assembly from the observed
// stage spans and the run's own counters.
func (sp assemblySpec) setLayers(rec *runRecord, st pipeline.Stats, clock *stageClock) {
	dur := func(stage string) float64 { return median(clock.Dur[stage]) }
	tm := st.Timers
	work := func(stage string) float64 { return float64(tm.Get(stage).SumWork) }
	sent := func(stage string) float64 { return float64(tm.Get(stage).SumBytes) }

	rec.set("kmer.count_s", dur(pipeline.StageCountKmer))
	rec.set("kmer.occurrences", work(pipeline.StageCountKmer))
	rec.set("kmer.reliable_kmers", float64(st.NumKmers))
	rec.set("kmer.comm_bytes", sent(pipeline.StageCountKmer))

	products, cands := work(pipeline.StageDetectOverlap), float64(st.CandidatePairs)
	rec.set("overlap.detect_s", dur(pipeline.StageDetectOverlap))
	rec.set("spmat.spgemm_products", products)
	rec.set("spmat.products_per_s", ratio(products, dur(pipeline.StageDetectOverlap)))
	rec.set("overlap.candidates", cands)
	rec.set("overlap.products_per_candidate", ratio(products, cands))
	rec.set("overlap.detect_comm_bytes", sent(pipeline.StageDetectOverlap))

	layer := "align" // the x-drop package
	if sp.Backend == pipeline.BackendWFA {
		layer = "wfa"
	}
	cells := work(pipeline.StageAlignment)
	rec.set(layer+".align_s", dur(pipeline.StageAlignment))
	rec.set(layer+".cells", cells)
	rec.set(layer+".cells_per_s", ratio(cells, dur(pipeline.StageAlignment)))
	rec.set("overlap.kept_overlaps", float64(st.KeptOverlaps))
	rec.set("overlap.keep_ratio", ratio(float64(st.KeptOverlaps), cands))
	rec.set("overlap.contained_reads", float64(st.ContainedReads))

	rec.set("tr.reduce_s", dur(pipeline.StageTrReduction))
	rec.set("tr.iterations", float64(st.TR.Iterations))
	rec.set("tr.edges_removed", float64(st.TR.EdgesRemoved))
	rec.set("tr.products", work(pipeline.StageTrReduction))
	rec.set("tr.comm_bytes", sent(pipeline.StageTrReduction))

	// The contig sub-steps sit inside one stage, so the Observer cannot see
	// them; on assemblies they come from the run's own CG:* timers.
	sub := func(name string) float64 { return tm.Dur(name).Seconds() }
	rec.set("core.contig_s", dur(pipeline.StageExtractContig))
	rec.set("core.branch_removal_s", sub("CG:BranchRemoval"))
	rec.set("core.branch_vertices", float64(st.BranchVertices))
	rec.set("lacc.components_s", sub("CG:ConnectedComponent"))
	rec.set("partition.partition_s", sub("CG:Partitioning"))
	rec.set("partition.load_imbalance", ratio(float64(st.MaxLoad)*benchP, float64(st.AssignedReads)))
	rec.set("core.induced_subgraph_s", sub("CG:InducedSubgraph"))
	rec.set("core.sequence_comm_s", sub("CG:SequenceComm"))
	rec.set("core.local_assembly_s", sub("CG:LocalAssembly"))
	rec.set("core.contigs", float64(st.NumContigs))
	rec.set("core.assigned_reads", float64(st.AssignedReads))
	rec.set("core.comm_bytes", sent(pipeline.StageExtractContig))

	var exposed float64
	for _, stage := range pipeline.MainStages {
		exposed += float64(tm.Get(stage).SumExposedBytes())
	}
	rec.set("mpi.comm_bytes", float64(st.CommBytes))
	rec.set("mpi.comm_msgs", float64(st.CommMsgs))
	rec.set("mpi.exposed_bytes", exposed)
	rec.set("mpi.exposed_frac", ratio(exposed, float64(st.CommBytes)))
}
