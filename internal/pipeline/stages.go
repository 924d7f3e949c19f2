package pipeline

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/kmer"
	"repro/internal/overlap"
	"repro/internal/tr"
	"repro/internal/wfa"
)

// Stage names. The five compute stages carry the paper's Figure 5 breakdown
// names, so their trace entries line up with MainStages; their order is the
// stages table's.
const (
	StageFastaReader   = "FastaReader"   // grid + distributed read store
	StageCountKmer     = "CountKmer"     // reliable k-mer selection, each rank's columns of A
	StageDetectOverlap = "DetectOverlap" // C = A·Aᵀ candidate pairs
	StageAlignment     = "Alignment"     // per-pair extension, pruning, overlap matrix R
	StageTrReduction   = "TrReduction"   // string graph + bidirected transitive reduction
	StageExtractContig = "ExtractContig" // Algorithm 2 contig generation + gather
)

// AlignmentPhases are the Alignment sub-stages (the containment-first
// schedule's two phases); their work units are candidate pairs aligned, and
// Stats.AlignedPairs is their sum.
var AlignmentPhases = []string{overlap.SubStagePhase1, overlap.SubStagePhase2}

// ContigStages are the ExtractContig sub-stages (Algorithm 2 steps).
var ContigStages = []string{
	core.SubStageBranchRemoval, core.SubStageConnectedComponent, core.SubStagePartitioning,
	core.SubStageInducedSubgraph, core.SubStageSequenceComm, core.SubStageLocalAssembly,
}

// stageDef is one row of the pipeline table.
//
// subs names the trace sub-stages the stage's body records inside its own
// row, in display order (RowNames).
//
// options renders the options this stage is the first to consume, as its
// fragment of FingerprintThrough (nil: none).
//
// run executes the stage's body on one rank: it reads the outputs of the
// stages before it from rs and replaces its own output fields there, never
// mutating an input — the property that makes any Artifacts snapshot a
// reusable resume point. It returns the stage's work units on this rank,
// which the engine adds to the stage's row: the engine is the one writer of
// a top-level row. The engine provides the barrier between stages; within
// run, the rank is free to communicate through its stored communicators.
type stageDef struct {
	name    string
	subs    []string
	options func(o Options) string
	run     func(opt Options, a *Artifacts, rs *RankState) int64
}

// stages is the paper's linear pipeline, in execution order: FastaReader →
// KmerCounter → A·Aᵀ → Alignment → TrReduction → ContigGeneration. Every run
// executes a prefix of it, so a stage's inputs are exactly the outputs of
// the rows above it.
var stages = []stageDef{
	// FastaReader builds the process grid and the block-distributed read
	// store from the input reads. P is the grid shape every distributed
	// artifact is laid out on.
	{StageFastaReader, nil, func(o Options) string {
		return fmt.Sprintf(" p=%d", o.P)
	}, func(opt Options, a *Artifacts, rs *RankState) int64 {
		rs.Grid = grid.New(rs.Comm)
		rs.Store = fasta.FromGlobal(rs.Comm, a.Reads)
		rs.Comm.Metrics().Gauge("pipeline.reads_local").Set(int64(rs.Store.Hi - rs.Store.Lo))
		return 0
	}},
	// CountKmer runs distributed k-mer counting and reliable selection; its
	// work units are the k-mer occurrences extracted.
	{StageCountKmer, nil, func(o Options) string {
		return fmt.Sprintf(" k=%d rlow=%d rhigh=%d", o.K, o.ReliableLow, o.ReliableHigh)
	}, func(opt Options, a *Artifacts, rs *RankState) int64 {
		rs.Kmers = kmer.Count(rs.Store, opt.K, opt.ReliableLow, opt.ReliableHigh, opt.EffectiveThreads())
		return rs.Kmers.Occurrences
	}},
	// DetectOverlap computes the candidate matrix C = A·Aᵀ: a pure SpGEMM
	// over CountKmer's A matrix. It creates the overlap result, with the
	// k-mer and candidate counts. Its work units are the semiring products.
	{StageDetectOverlap, nil, nil, func(opt Options, a *Artifacts, rs *RankState) int64 {
		var products int64
		rs.Candidates, products = overlap.DetectCandidates(rs.Grid, rs.Store, rs.Kmers)
		rs.Overlap = &overlap.Result{NumKmers: rs.Kmers.NumCols, CandidatePairs: rs.Candidates.Nnz()}
		return products
	}},
	// Alignment extends the candidate pairs through the configured backend —
	// every pair whose result can change R (overlap.AlignCandidates) — and
	// prunes to the symmetric overlap matrix R. It replaces the overlap
	// result with a copy that adds R, the contained reads and the kept count.
	{StageAlignment, AlignmentPhases, func(o Options) string {
		return fmt.Sprintf(" backend=%s xdrop=%d minov=%d minfrac=%g maxovh=%d",
			cmp.Or(o.AlignBackend, BackendXDrop), o.XDrop, o.MinOverlap, o.MinScoreFrac, o.MaxOverhang)
	}, func(opt Options, a *Artifacts, rs *RankState) int64 {
		ov := *rs.Overlap
		work := overlap.AlignCandidates(rs.Grid, rs.Store, rs.Candidates, overlapCfg(opt), rs.Timers, &ov)
		rs.Overlap = &ov
		return work
	}},
	// TrReduction classifies R into the bidirected string graph and runs the
	// transitive reduction. The string graph is derived fresh from R on every
	// execution (tr.Reduce reduces in place), which is what lets a
	// post-Alignment snapshot feed many TR parameter points (MaxOverhang,
	// which the classification also reads, is in the Alignment prefix).
	{StageTrReduction, nil, func(o Options) string {
		return fmt.Sprintf(" trfuzz=%d trmaxiter=%d", o.TRFuzz, o.TRMaxIter)
	}, func(opt Options, a *Artifacts, rs *RankState) int64 {
		s := overlap.ToStringGraph(rs.Overlap.R, opt.MaxOverhang)
		rs.TRStats = tr.Reduce(s, opt.TRFuzz, opt.TRMaxIter, opt.Async)
		rs.StringGraph = s
		return rs.TRStats.Products
	}},
	// ExtractContig runs Algorithm 2 (contig generation), then gathers the
	// contigs at rank 0 — the same op sequence, and therefore the same
	// traffic, as the tail of a monolithic run; Artifacts.Output reads them
	// there. Algorithm 2's sub-stages nest inside the stage's row.
	{StageExtractContig, ContigStages, func(o Options) string {
		return fmt.Sprintf(" packseq=%t", o.PackSeqComm)
	}, func(opt Options, a *Artifacts, rs *RankState) int64 {
		cres := core.ContigGeneration(rs.StringGraph, rs.Store, rs.Timers, opt.PackSeqComm, opt.Async)
		cres.Contigs = core.GatherContigs(rs.Grid.Comm, cres.Contigs)
		rs.Contig = cres
		// ExtractContig's work units: edges routed plus bases assembled.
		return rs.Timers.Entry(core.SubStageInducedSubgraph).Work + rs.Timers.Entry(core.SubStageLocalAssembly).Work
	}},
}

// StageNames returns the pipeline's stages in execution order.
func StageNames() []string {
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.name
	}
	return names
}

// RowNames lists every row a run records, in table order: each stage
// followed by its sub-stages. It is the one row list: the run manifest
// walks it.
func RowNames() []string {
	var names []string
	for _, s := range stages {
		names = append(names, s.name)
		names = append(names, s.subs...)
	}
	return names
}

// MainStages are the paper's Figure 5 breakdown categories in pipeline
// order: every stage after FastaReader.
var MainStages = StageNames()[1:]

// stageIndex resolves a stage name to its row in the table.
func stageIndex(name string) (int, error) {
	if i := slices.Index(StageNames(), name); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("pipeline: unknown stage %q (stages: %s)", name, strings.Join(StageNames(), " → "))
}

// overlapCfg derives the Alignment stage's config. Plan validated the
// backend, and a nil NewAligner is the x-drop aligner.
func overlapCfg(opt Options) overlap.Config {
	cfg := overlap.Config{
		K:            opt.K,
		Align:        align.DefaultParams(opt.XDrop),
		MinOverlap:   opt.MinOverlap,
		MinScoreFrac: opt.MinScoreFrac,
		MaxOverhang:  opt.MaxOverhang,
		Threads:      opt.EffectiveThreads(),
	}
	if opt.AlignBackend == BackendWFA {
		p := wfa.DualParams(cfg.Align)
		cfg.NewAligner = func() align.Aligner { return wfa.New(p) }
	}
	return cfg
}
