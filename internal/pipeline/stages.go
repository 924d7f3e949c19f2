package pipeline

import (
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/overlap"
	"repro/internal/tr"
	"repro/internal/trace"
)

// Stage names, in graph order. The five compute stages carry the paper's
// Figure 5 breakdown names, so their trace entries line up with MainStages.
const (
	StageFastaReader   = "FastaReader"   // grid + distributed read store
	StageCountKmer     = "CountKmer"     // reliable k-mer selection, A-matrix triples
	StageDetectOverlap = "DetectOverlap" // C = A·Aᵀ candidate pairs
	StageAlignment     = "Alignment"     // per-pair extension, pruning, overlap matrix R
	StageTrReduction   = "TrReduction"   // string graph + bidirected transitive reduction
	StageExtractContig = "ExtractContig" // Algorithm 2 contig generation + gather
)

// StageNames returns the pipeline's stage graph in execution order.
func StageNames() []string {
	return []string{StageFastaReader, StageCountKmer, StageDetectOverlap,
		StageAlignment, StageTrReduction, StageExtractContig}
}

func init() {
	// CG:* timer entries are contig-generation sub-stages nested inside
	// ExtractContig; deterministic breakdowns group them under it.
	trace.RegisterSubStages("CG", StageExtractContig)
	// AL:* entries are the Alignment stage's two phases
	// (AlignmentPhases); their work units are aligned pairs.
	trace.RegisterSubStages("AL", StageAlignment)
}

// Stage is one node of the pipeline graph. Run executes the stage's body on
// one simulated rank: it reads the outputs of the stages named by Deps from
// a.Ranks[rank] and replaces its own output fields there, never mutating an
// input — the property that makes any Artifacts snapshot a reusable resume
// point. The engine provides the barrier between stages; within Run, the
// rank is free to communicate through its stored communicators.
type Stage interface {
	Name() string
	// Deps names the stages whose artifact fields this stage consumes.
	Deps() []string
	Run(opt Options, a *Artifacts, rank int)
}

// defaultStages builds the paper's linear graph: FastaReader → KmerCounter →
// A·Aᵀ → Alignment → TrReduction → ContigGeneration.
func defaultStages() []Stage {
	return []Stage{
		fastaReaderStage{}, countKmerStage{}, detectOverlapStage{},
		alignmentStage{}, trReductionStage{}, extractContigStage{},
	}
}

// overlapCfg derives the overlap-stage config; the backend was validated at
// Plan time, so the factory error cannot fire here.
func overlapCfg(opt Options) overlap.Config {
	newAligner, err := opt.alignerFactory()
	if err != nil {
		panic(err)
	}
	return opt.overlapConfig(newAligner)
}

// fastaReaderStage builds the process grid and the block-distributed read
// store from the input reads (the FastaReader of Algorithm 1).
type fastaReaderStage struct{}

func (fastaReaderStage) Name() string   { return StageFastaReader }
func (fastaReaderStage) Deps() []string { return nil }
func (fastaReaderStage) Run(opt Options, a *Artifacts, rank int) {
	rs := a.Ranks[rank]
	rs.Grid = grid.New(rs.Comm)
	rs.Store = fasta.FromGlobal(rs.Comm, a.Reads)
	rs.Comm.Metrics().Gauge("pipeline.reads_local").Set(int64(rs.Store.Hi - rs.Store.Lo))
}

// countKmerStage runs distributed k-mer counting and reliable selection.
type countKmerStage struct{}

func (countKmerStage) Name() string   { return StageCountKmer }
func (countKmerStage) Deps() []string { return []string{StageFastaReader} }
func (countKmerStage) Run(opt Options, a *Artifacts, rank int) {
	rs := a.Ranks[rank]
	rs.Overlap = &overlap.Result{NumReads: rs.Store.N}
	rs.Kmers = overlap.CountKmers(rs.Grid, rs.Store, overlapCfg(opt), rs.Timers, rs.Overlap)
}

// detectOverlapStage computes the candidate matrix C = A·Aᵀ.
type detectOverlapStage struct{}

func (detectOverlapStage) Name() string   { return StageDetectOverlap }
func (detectOverlapStage) Deps() []string { return []string{StageCountKmer} }
func (detectOverlapStage) Run(opt Options, a *Artifacts, rank int) {
	rs := a.Ranks[rank]
	rs.Candidates = overlap.DetectCandidates(rs.Grid, rs.Store, rs.Kmers, overlapCfg(opt), rs.Timers, rs.Overlap)
}

// alignmentStage extends the candidate pairs through the configured backend —
// every pair whose result can change R (overlap.AlignCandidates) — and prunes
// to the symmetric overlap matrix R.
type alignmentStage struct{}

func (alignmentStage) Name() string   { return StageAlignment }
func (alignmentStage) Deps() []string { return []string{StageDetectOverlap} }
func (alignmentStage) Run(opt Options, a *Artifacts, rank int) {
	rs := a.Ranks[rank]
	overlap.AlignCandidates(rs.Grid, rs.Store, rs.Candidates, overlapCfg(opt), rs.Timers, rs.Overlap)
}

// trReductionStage classifies R into the bidirected string graph and runs
// the transitive reduction. The string graph is derived fresh from R on
// every execution (tr.Reduce reduces in place), which is what lets a
// post-Alignment snapshot feed many TR/overhang parameter points.
type trReductionStage struct{}

func (trReductionStage) Name() string   { return StageTrReduction }
func (trReductionStage) Deps() []string { return []string{StageAlignment} }
func (trReductionStage) Run(opt Options, a *Artifacts, rank int) {
	rs := a.Ranks[rank]
	s := overlap.ToStringGraph(rs.Overlap.R, opt.MaxOverhang)
	rs.TRStats = tr.Reduce(s, opt.TRFuzz, opt.TRMaxIter, opt.Async)
	rs.Timers.AddWork(StageTrReduction, rs.TRStats.Products)
	rs.StringGraph = s
}

// extractContigStage runs Algorithm 2 (contig generation), then gathers the
// contigs at rank 0 and stores the run's Output into the artifacts — the same
// op sequence, and therefore the same traffic, as the tail of a monolithic
// run. The CG:* sub-stages nest inside the stage's row.
type extractContigStage struct{}

func (extractContigStage) Name() string   { return StageExtractContig }
func (extractContigStage) Deps() []string { return []string{StageTrReduction} }
func (extractContigStage) Run(opt Options, a *Artifacts, rank int) {
	rs := a.Ranks[rank]
	cres := core.ContigGeneration(rs.StringGraph, rs.Store, rs.Timers, opt.PackSeqComm, opt.Async)
	// ExtractContig's work units: edges routed plus bases assembled.
	rs.Timers.AddWork(StageExtractContig,
		rs.Timers.Entry("CG:InducedSubgraph").Work+rs.Timers.Entry("CG:LocalAssembly").Work)
	rs.Contig = cres

	contigs := core.GatherContigs(rs.Grid.Comm, cres.Contigs)
	if rank == 0 {
		ores := rs.Overlap
		a.storeOutput(contigs, Stats{
			P:              opt.P,
			Threads:        opt.EffectiveThreads(),
			NumReads:       ores.NumReads,
			NumKmers:       ores.NumKmers,
			CandidatePairs: ores.CandidatePairs,
			KeptOverlaps:   ores.KeptOverlaps,
			ContainedReads: len(ores.Contained),
			TR:             rs.TRStats,
			NumContigs:     cres.NumContigs,
			BranchVertices: cres.BranchVertices,
			AssignedReads:  cres.AssignedReads,
			MaxLoad:        cres.MaxLoad,
			MinLoad:        cres.MinLoad,
		})
	}
}
