// Package elba is the public API of this reproduction of "Distributed-Memory
// Parallel Contig Generation for De Novo Long-Read Genome Assembly"
// (Guidi et al., ICPP 2022).
//
// ELBA assembles long erroneous reads into contigs with the
// Overlap–Layout–Consensus paradigm, executed as sparse matrix computations
// on a (simulated) distributed-memory machine: overlap detection is a
// distributed SpGEMM C = A·Aᵀ, the layout phase is a bidirected transitive
// reduction, and the contig generation phase — the paper's contribution —
// masks branches, finds linear components with Awerbuch–Shiloach connected
// components, load-balances contigs with LPT multiway number partitioning,
// redistributes each contig's reads to one rank via the induced-subgraph
// communication, and assembles locally with a linear DFS walk.
//
// Quick start — configure an Assembler with functional options, then
// assemble any Source (in-memory reads, FASTA, or a simulated dataset):
//
//	ds := elba.SimulateDataset(elba.CElegansLike, 100_000, 42)
//	asm, err := elba.New(elba.WithPreset(elba.CElegansLike), elba.WithRanks(4))
//	out, err := asm.Assemble(ctx, elba.FromDataset(ds))
//	rep := elba.Evaluate(ds.Genome, out.Contigs)
//
// New validates everything upfront: a bad rank count, k-mer length, backend
// name and negative thresholds are reported together, each error naming its
// field. Cancelling ctx aborts a running assembly promptly.
//
// The pipeline is a stage graph (FastaReader → CountKmer → DetectOverlap →
// Alignment → TrReduction → ExtractContig), and the Assembler exposes it:
// RunUntil stops after any stage and returns an Artifacts snapshot;
// ResumeFrom continues a snapshot — any number of times, under different
// downstream parameters — without re-running the expensive overlap phase.
// A TR-parameter sweep therefore aligns once:
//
//	arts, err := asm.RunUntil(ctx, elba.FromDataset(ds), elba.StageAlignment)
//	loose, _ := elba.New(elba.WithPreset(elba.CElegansLike), elba.WithRanks(4), elba.WithTRFuzz(500))
//	chain, err := loose.ResumeFrom(ctx, arts, elba.StageExtractContig)
//	out, err := chain.Output()
//
// Contigs are bit-identical between monolithic, staged and resumed
// execution.
//
// The Alignment stage dispatches through a pluggable backend: the default
// x-drop DP, or linear-gap wavefront alignment (much faster on low-error
// reads) via elba.WithBackend(elba.BackendWFA). Execution is hybrid like
// the paper's MPI + threads design: each simulated rank drives the
// alignment and k-mer hot paths through an intra-rank worker pool of
// WithThreads workers, and with WithAsync(true) (the default) the
// communication-heavy exchanges run on the nonblocking mpi layer,
// overlapped against local computation. Contigs are bit-identical at any
// thread count and in either communication mode.
//
// Ranks talk over a pluggable transport, selected with
// WithTransport(elba.TransportInproc) — goroutines sharing in-process
// mailboxes, the default — or WithTransport(elba.TransportTCP), a socket
// mesh: loopback inside one process by default, or spanning OS processes
// and machines when each process joins a rendezvous (`elba -serve-rendezvous`
// plus one `elba -transport tcp -join host:port -rank R -np P` worker per
// rank; see OPERATIONS.md). The third transport, TransportProc, is the
// single-host special case driven by the cmd/elba launcher (`elba
// -transport proc -np 4`), which re-execs one worker per rank. Contigs and
// byte/message counters are identical on every transport. If a rank
// process dies mid-run its peers abort promptly with an error naming the
// dead rank and the per-stage restart point; WithFailureHandler observes
// the cause and FailedRank recovers the attribution.
//
// Observability is opt-in and result-neutral: WithTrace records per-rank
// event spans (stage bodies, pool chunks, mpi sends/receives/waits) for
// Perfetto (`elba -traceout run.json`, then load run.json in
// ui.perfetto.dev); WithMetrics collects typed counters/gauges/histograms;
// and Output.Manifest builds the machine-readable RUN.json run record
// (options, per-stage comm breakdown with the overlap/exposed split, contig
// checksum) that benchguard -manifest verifies. Contigs and byte/message
// counters are bit-identical with observability on or off.
//
// The pre-Assembler entry points (Assemble, AssembleFasta, DefaultOptions,
// PresetOptions) remain as thin wrappers over the same engine.
package elba

import (
	"errors"
	"io"

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
// Async field (default true) overlaps the SUMMA, k-mer and read-sequence
// exchanges against computation via nonblocking communication. Contigs are
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
// returned by Assemble/RunUntil/ResumeFrom on a distributed run and the
// causes delivered to WithFailureHandler; ok is false for errors with no
// rank attribution (validation errors, context cancellation).
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

// Trace collects per-rank event spans for Perfetto export (WithTrace);
// write it with Trace.WriteFile after the run.
type Trace = obs.Trace

// MetricSet collects per-rank typed metrics (WithMetrics); snapshot it with
// MetricSet.WriteFile or fold it into the manifest.
type MetricSet = obs.MetricSet

// Manifest is the machine-readable run record (RUN.json), built by
// Output.Manifest(opt); obs-level Verify checks its internal invariants.
type Manifest = obs.Manifest

// NewTrace allocates one event lane per rank (pass at least the rank count).
func NewTrace(ranks int) *Trace { return obs.NewTrace(ranks) }

// NewMetricSet allocates one metric registry per rank.
func NewMetricSet(ranks int) *MetricSet { return obs.NewMetricSet(ranks) }

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
func PresetOptions(preset readsim.Preset, p int) Options {
	return pipeline.PresetOptions(preset, p)
}

// Assemble runs the full distributed pipeline on the given read sequences.
func Assemble(reads [][]byte, opt Options) (*Output, error) {
	return pipeline.Run(reads, opt)
}

// AssembleFasta reads a FASTA stream and assembles it.
func AssembleFasta(r io.Reader, opt Options) (*Output, error) {
	reads, err := readFastaSeqs(r)
	if err != nil {
		return nil, err
	}
	return Assemble(reads, opt)
}

// SimulateDataset generates a deterministic synthetic dataset mirroring a
// Table 2 row at the given genome size.
func SimulateDataset(preset readsim.Preset, genomeLen int, seed int64) *Dataset {
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
		Align:        alignParams(o),
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

// WriteContigs serializes contigs as FASTA records named contig_0000….
func WriteContigs(w io.Writer, contigs []Contig) error {
	recs := make([]fasta.Record, len(contigs))
	for i, c := range contigs {
		recs[i] = fasta.Record{ID: contigName(i, c), Seq: c.Seq}
	}
	return fasta.Write(w, recs, 80)
}
