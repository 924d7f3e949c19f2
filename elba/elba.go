// Package elba is the public API of this reproduction of "Distributed-Memory
// Parallel Contig Generation for De Novo Long-Read Genome Assembly"
// (Guidi et al., ICPP 2022).
//
// ELBA assembles long erroneous reads into contigs with the
// Overlap–Layout–Consensus paradigm, executed as sparse matrix computations
// on a (simulated) distributed-memory machine: overlap detection is a
// distributed SpGEMM C = A·Aᵀ, the layout phase is a bidirected transitive
// reduction, and the contig generation phase — the paper's contribution —
// masks branches, finds linear components with FastSV connected
// components, load-balances contigs with LPT multiway number partitioning,
// redistributes each contig's reads to one rank via the induced-subgraph
// communication, and assembles locally with a linear DFS walk.
//
// Quick start — take a preset's option set, change the fields you need, and
// assemble in-memory reads (AssembleFasta reads a FASTA stream instead):
//
//	ds := elba.SimulateDataset(elba.CElegansLike, 100_000, 42)
//	opt := elba.PresetOptions(elba.CElegansLike, 4) // P = 4 simulated ranks
//	opt.AlignBackend = elba.BackendWFA
//	out, err := elba.Assemble(elba.ReadSeqs(ds.Reads), opt)
//	rep := elba.Evaluate(ds.Genome, out.Contigs)
//
// Options is the whole configuration surface: there is no second way to set
// a parameter. It is validated upfront — a bad rank count, k-mer length,
// backend name and negative thresholds are reported together, each error
// naming its field — before any rank starts.
//
// The pipeline is a stage graph (FastaReader → CountKmer → DetectOverlap →
// Alignment → TrReduction → ExtractContig), and Plan hands out the Engine
// that drives it: Run executes the whole graph under a context (cancelling
// it aborts the run promptly), RunUntil stops after any stage and returns an
// Artifacts snapshot, and ResumeFrom continues a snapshot — any number of
// times, under different downstream parameters — without re-running the
// expensive overlap phase. A TR-parameter sweep therefore aligns once:
//
//	eng, err := elba.Plan(opt)
//	arts, err := eng.RunUntil(ctx, reads, elba.StageAlignment)
//	opt.TRFuzz = 500
//	loose, err := elba.Plan(opt)
//	chain, err := loose.ResumeFrom(ctx, arts, elba.StageExtractContig)
//	out, err := chain.Output()
//
// Contigs are bit-identical between monolithic, staged and resumed
// execution. With Options.CheckpointDir set the engine also persists each
// completed stage, and Engine.LoadCheckpoint restores the most advanced
// committed one as a snapshot to ResumeFrom after a crash.
//
// The Alignment stage dispatches through a pluggable backend: the default
// x-drop DP, or linear-gap wavefront alignment (much faster on low-error
// reads) via Options.AlignBackend = elba.BackendWFA. Execution is hybrid like
// the paper's MPI + threads design: each simulated rank drives the
// alignment and k-mer hot paths through an intra-rank worker pool of
// Options.Threads workers, and the communication-heavy exchanges are posted
// early on the nonblocking mpi layer; with Options.Async (the default) they
// run behind the local computation, without it the same posts complete
// inside their Wait (the blocking baseline). Contigs are bit-identical at
// any thread count and in either communication mode.
//
// Ranks talk over a pluggable transport, selected with Options.Transport:
// elba.TransportInproc — goroutines sharing in-process mailboxes, the
// default — or elba.TransportTCP, a socket mesh: loopback inside one
// process by default, or spanning OS processes and machines when each
// process joins a rendezvous (`elba -serve-rendezvous` plus one `elba
// -transport tcp -join host:port -rank R -np P` worker per rank; see
// OPERATIONS.md). The third transport, TransportProc, is the single-host
// special case driven by the cmd/elba launcher (`elba -transport proc -np
// 4`), which re-execs one worker per rank. Contigs and byte/message
// counters are identical on every transport. If a rank process dies mid-run
// its peers abort promptly with an error naming the dead rank and the
// per-stage restart point, and FailedRank recovers the attribution from the
// returned error.
//
// Observability is result-neutral: Options.Trace (NewTrace), opt-in,
// records per-rank event spans (stage bodies, pool chunks, mpi
// sends/receives/waits) for Perfetto (`elba -traceout run.json`, then load
// run.json in ui.perfetto.dev); every run collects typed
// counters/gauges/histograms per rank; an Observer passed to Plan streams
// per-stage progress; and Output.Manifest builds the machine-readable
// RUN.json run record (options, per-stage comm breakdown with the
// overlap/exposed split, contig checksum, every rank's metric snapshot and
// their merge) that benchguard -manifest verifies. Contigs and byte/message
// counters are bit-identical with tracing on or off.
package elba

import (
	"errors"
	"io"

	"repro/internal/align"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/polish"
	"repro/internal/quality"
	"repro/internal/readsim"
)

// Options parameterizes an assembly run; P is the simulated rank count and
// must be a perfect square (the paper's 2D grid requirement). The
// AlignBackend field selects the Alignment-stage implementation
// (BackendXDrop or BackendWFA; empty means x-drop). The Threads field sets
// the intra-rank worker count for the alignment and k-mer hot paths — the
// hybrid ranks × threads model (0 = GOMAXPROCS split across ranks). The
// Async field (default true) lets the SUMMA, k-mer and read-sequence
// exchanges the kernels post early run behind the computation; false runs
// the same schedule with every transfer inside its Wait. Contigs are
// bit-identical for every Threads and Async value.
//
// Options.Fingerprint and Options.FingerprintThrough(stage) are the stable
// content addresses of the result-determining options: FingerprintThrough
// covers only the options consumed by stages up to and including stage (the
// "option prefix"), which is what checkpoint validation enforces and the
// elbad artifact cache keys on — two option sets sharing a prefix through
// Alignment may share one post-Alignment artifact.
type Options = pipeline.Options

// Alignment backend names for Options.AlignBackend.
const (
	BackendXDrop = pipeline.BackendXDrop // banded antidiagonal x-drop DP
	BackendWFA   = pipeline.BackendWFA   // linear-gap wavefront alignment
)

// AlignBackends lists the built-in alignment backends.
func AlignBackends() []string { return pipeline.AlignBackends() }

// Transport names for Options.Transport. The in-process mailbox is the
// reference configuration; the tcp transport runs the same program over a
// loopback socket mesh, and `elba -transport proc` runs every rank as a
// separate OS process. Contigs are bit-identical and traffic counters equal
// across all transports.
const (
	TransportInproc = pipeline.TransportInproc // goroutines + in-process mailboxes (default)
	TransportTCP    = pipeline.TransportTCP    // loopback TCP mesh within one process
	TransportProc   = pipeline.TransportProc   // one OS process per rank (cmd/elba -transport proc)
)

// Transports lists the transports selectable through the library API.
func Transports() []string { return pipeline.Transports() }

// FailedRank reports the world rank a failure is attributed to, when the
// transport could name one — a worker process that died mid-run, a broken
// mesh connection, a peer that aborted the job. It unwraps the error chains
// returned by Assemble and the Engine on a distributed run; ok is false for
// errors with no rank attribution (validation errors, context cancellation).
func FailedRank(err error) (rank int, ok bool) {
	var rf *transport.RankFailure
	if errors.As(err, &rf) {
		return rf.Rank, true
	}
	return 0, false
}

// Output is an assembled contig set plus run statistics.
type Output = pipeline.Output

// Stats carries per-stage timings (paper Figure 5 names) and counters.
type Stats = pipeline.Stats

// Contig is one assembled chain of reads.
type Contig = core.Contig

// Engine drives the stage graph under one validated option set: Run for the
// whole pipeline, RunUntil / ResumeFrom for partial runs and parameter
// sweeps that reuse the expensive overlap phase, LoadCheckpoint to restore
// what a crashed run left under Options.CheckpointDir. Every method takes a
// context; cancelling it unwinds every simulated rank. An Engine is
// immutable and safe to reuse across inputs.
type Engine = pipeline.Engine

// Artifacts is a resume point: the typed bag of everything a partial run
// produced (world, grid, read store, overlap result, string graph, contigs).
// Produced by Engine.RunUntil or Engine.LoadCheckpoint, consumed — any
// number of times — by Engine.ResumeFrom; call Output once the final stage
// has run, and Close when done with a loaded checkpoint's world.
type Artifacts = pipeline.Artifacts

// Observer streams per-stage progress (start callbacks, post-stage wall time
// and the whole job's cross-rank stage rows) from a running assembly.
type Observer = pipeline.Observer

// Plan validates opt — all parameter errors surface here, together — and
// returns the engine that runs under it, reporting progress to observers.
func Plan(opt Options, observers ...Observer) (*Engine, error) {
	return pipeline.Plan(opt, observers...)
}

// Stage names of the pipeline graph, for Engine.RunUntil/ResumeFrom, in
// execution order.
const (
	StageFastaReader   = pipeline.StageFastaReader
	StageCountKmer     = pipeline.StageCountKmer
	StageDetectOverlap = pipeline.StageDetectOverlap
	StageAlignment     = pipeline.StageAlignment
	StageTrReduction   = pipeline.StageTrReduction
	StageExtractContig = pipeline.StageExtractContig
)

// StageNames lists the pipeline's stages in execution order.
func StageNames() []string { return pipeline.StageNames() }

// Trace collects per-rank event spans for Perfetto export (Options.Trace);
// write it with Trace.WriteFile after the run.
type Trace = obs.Trace

// Manifest is the machine-readable run record (RUN.json), built by
// Output.Manifest; obs-level Verify checks its internal invariants.
type Manifest = obs.Manifest

// NewTrace allocates one event lane per rank (pass at least the rank count).
func NewTrace(ranks int) *Trace { return obs.NewTrace(ranks) }

// QualityReport holds the Table 4 metrics (completeness, longest contig,
// contig count, misassemblies) plus N50 and coverage uniformity.
type QualityReport = quality.Report

// Dataset is a synthetic Table 2 dataset substitute: reference genome plus
// simulated reads.
type Dataset = readsim.Dataset

// Read is a simulated read with its ground-truth placement.
type Read = readsim.Read

// BaselineConfig parameterizes the shared-memory comparator assembler.
type BaselineConfig = baseline.Config

// BaselineResult is the comparator's output.
type BaselineResult = baseline.Result

// Preset selects a Table 2 dataset substitute (CElegansLike, OSativaLike,
// HSapiensLike).
type Preset = readsim.Preset

// Dataset presets mirroring the paper's Table 2.
const (
	CElegansLike = readsim.CElegansLike
	OSativaLike  = readsim.OSativaLike
	HSapiensLike = readsim.HSapiensLike
)

// DefaultOptions returns the low-error-rate configuration (k=31, x=15) at P
// simulated ranks.
func DefaultOptions(p int) Options { return pipeline.DefaultOptions(p) }

// PresetOptions returns per-dataset parameters mirroring §5 (k=17 for the
// high-error preset).
func PresetOptions(preset Preset, p int) Options {
	return pipeline.PresetOptions(preset, p)
}

// Assemble runs the full distributed pipeline on the given read sequences
// (Plan(opt) + Engine.Run under a background context).
func Assemble(reads [][]byte, opt Options) (*Output, error) {
	return pipeline.Run(reads, opt)
}

// AssembleFasta reads a FASTA stream and assembles it.
func AssembleFasta(r io.Reader, opt Options) (*Output, error) {
	reads, err := fasta.ReadSeqs(r)
	if err != nil {
		return nil, err
	}
	return Assemble(reads, opt)
}

// SimulateDataset generates a deterministic synthetic dataset mirroring a
// Table 2 row at the given genome size.
func SimulateDataset(preset Preset, genomeLen int, seed int64) *Dataset {
	return readsim.Generate(preset, genomeLen, seed)
}

// ReadSeqs extracts the raw sequences from simulated reads.
func ReadSeqs(reads []Read) [][]byte { return readsim.Seqs(reads) }

// Evaluate computes assembly-quality metrics against a known reference.
func Evaluate(reference []byte, contigs []Contig) *QualityReport {
	seqs := make([][]byte, len(contigs))
	for i, c := range contigs {
		seqs[i] = c.Seq
	}
	return quality.Evaluate(reference, seqs)
}

// BestOverlapBaseline runs the shared-memory greedy best-overlap-graph
// comparator (the Tables 3–4 stand-in for Hifiasm/HiCanu).
func BestOverlapBaseline(reads [][]byte, cfg BaselineConfig) *BaselineResult {
	return baseline.BestOverlapAssemble(reads, cfg)
}

// BaselineFromOptions derives a comparator config matching the pipeline's
// overlap parameters with the given thread count.
func BaselineFromOptions(o Options, threads int) BaselineConfig {
	return BaselineConfig{
		K:            o.K,
		ReliableLow:  o.ReliableLow,
		ReliableHigh: o.ReliableHigh,
		Align:        align.DefaultParams(o.XDrop),
		MinOverlap:   o.MinOverlap,
		MinScoreFrac: o.MinScoreFrac,
		MaxOverhang:  o.MaxOverhang,
		Threads:      threads,
	}
}

// PolishConfig parameterizes the contig-merging pass.
type PolishConfig = polish.Config

// DefaultPolishConfig suits contigs from the low-error presets.
func DefaultPolishConfig() PolishConfig { return polish.DefaultConfig() }

// MergeContigs implements the paper's future-work polishing idea (§7):
// overlap detection within the contig set joins overlapping contigs into
// longer sequences; contained contigs are dropped.
func MergeContigs(contigs []Contig, cfg PolishConfig) []Contig {
	return polish.Merge(contigs, cfg)
}

// WriteContigs serializes contigs as FASTA records named contig_00000…,
// each id carrying the length, read count and circularity.
func WriteContigs(w io.Writer, contigs []Contig) error { return core.WriteContigs(w, contigs) }
