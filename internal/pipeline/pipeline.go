// Package pipeline assembles the full ELBA computation of Algorithm 1:
// FastaReader → KmerCounter → A → C = A·Aᵀ → Alignment → Prune →
// TransitiveReduction → ContigGeneration, on a simulated distributed-memory
// machine of P ranks arranged as a √P × √P grid. Execution is hybrid, like
// the paper's MPI + threads design: every rank drives its compute-heavy
// loops (k-mer extraction, pairwise alignment) through an intra-rank worker
// pool of Options.Threads workers (package par). The Alignment stage
// dispatches through a pluggable backend (Options.AlignBackend: x-drop DP
// or wavefront alignment). It reports per-stage
// timings under the paper's breakdown names (CountKmer, DetectOverlap,
// Alignment, TrReduction, ExtractContig) plus the contig-phase sub-stages
// (CG:*) used for the §6.1 induced-subgraph claim.
//
// The computation is one table of stages (stages.go: each row's name, the
// options it consumes and its per-rank body) over a typed Artifacts bag,
// driven by an Engine: Plan(opt) validates the options, RunUntil executes a
// prefix of the table, ResumeFrom continues a snapshot — possibly many
// times, under different downstream parameters — and context cancellation
// unwinds every simulated rank promptly. Run is the monolithic convenience
// wrapper over the same engine, so monolithic, staged and resumed execution
// produce bit-identical contigs and equal traffic counters.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/transport/tcp"
	"repro/internal/obs"
	"repro/internal/readsim"
	"repro/internal/tr"
	"repro/internal/trace"
)

// Alignment backend names accepted by Options.AlignBackend.
const (
	BackendXDrop = "xdrop" // banded antidiagonal x-drop DP (package align)
	BackendWFA   = "wfa"   // linear-gap wavefront alignment (package wfa)
)

// AlignBackends lists the built-in alignment backends.
func AlignBackends() []string { return []string{BackendXDrop, BackendWFA} }

// Transport names accepted by Options.Transport.
const (
	// TransportInproc runs all P ranks as goroutines of this process over
	// the in-process mailbox transport ("" is an alias; the reference
	// configuration).
	TransportInproc = "inproc"
	// TransportTCP runs the same program over a loopback TCP socket mesh:
	// every message crosses a real wire codec and socket, still within one
	// process. Contigs and traffic counters are identical to inproc.
	TransportTCP = "tcp"
	// TransportProc marks a run where each rank is a separate OS process
	// (cmd/elba -transport proc). It requires the NewWorld hook: only the
	// launcher knows how to dial this process's endpoint into the mesh.
	TransportProc = "proc"
)

// Transports lists the transport names a library caller can select directly
// (TransportProc needs the cmd/elba process launcher on top).
func Transports() []string { return []string{TransportInproc, TransportTCP} }

// Options parameterizes a pipeline run.
type Options struct {
	P int // simulated ranks; must be a perfect square
	K int // k-mer length (paper: 31 low-error, 17 high-error)
	// AlignBackend selects the Alignment-stage implementation: "xdrop"
	// (default; "" is an alias) or "wfa". Both consume the same seeds and
	// produce compatible scores/extents; WFA's work scales with alignment
	// penalty rather than band area, so it wins on low-error reads.
	AlignBackend string
	// Threads is the intra-rank worker count (the hybrid ranks × threads
	// model: the paper runs multithreaded alignment inside every MPI rank).
	// The k-mer extraction and pairwise-alignment loops of each rank run on
	// a worker pool of this size (package par), with one aligner instance
	// per worker. 0 means auto: GOMAXPROCS split evenly across the P
	// simulated ranks, never below 1. Contig output is bit-identical for
	// every thread count.
	Threads      int
	XDrop        int32 // x-drop / wavefront-prune threshold (paper: 15 low-error, 7 high-error)
	ReliableLow  int32
	ReliableHigh int32
	MinOverlap   int32
	MinScoreFrac float64
	MaxOverhang  int32
	TRFuzz       int32
	TRMaxIter    int
	// PackSeqComm sends read sequences 2-bit packed during contig
	// generation (§7 future work); false matches the paper's protocol.
	PackSeqComm bool
	// Trace, when non-nil, collects per-rank event spans (stage bodies,
	// worker-pool chunks, mpi sends/receives/waits) into ring-buffered lanes
	// for Perfetto export. It must cover at least P ranks. Tracing never
	// changes contigs or byte/message counters; with Trace nil the hooks
	// reduce to a pointer check. Excluded from the run manifest's options
	// (observability configuration is not an algorithmic parameter).
	Trace *obs.Trace `json:"-"`
	// Metrics, when non-nil, collects per-rank typed counters, gauges and
	// histograms (mpi.*, kmer.*, spmat.*, align.*, pipeline.*) for the run
	// manifest, which records each rank's snapshot and their merge. Same
	// contract as Trace: ≥ P ranks, no effect on results, nil means
	// zero-cost. In a multi-process run every process's snapshot reaches
	// every other after each stage, on the control plane with the stage rows;
	// a process without Metrics sends none, so its ranks' snapshots are empty.
	Metrics *obs.MetricSet `json:"-"`
	// Transport selects how the P ranks exchange messages: "" or "inproc"
	// (goroutines over the in-process mailbox), "tcp" (a loopback socket
	// mesh inside this process — the real wire path), or "proc" (one OS
	// process per rank, orchestrated by cmd/elba -transport proc, which
	// supplies the NewWorld hook). Contigs are bit-identical and traffic
	// counters equal across transports; only wall time differs.
	Transport string
	// NewWorld, when non-nil, overrides world construction — the expert
	// hook the multi-process launcher uses to dial this process's endpoint
	// into the rank mesh. The returned world must span p ranks. Excluded
	// from the manifest (plumbing, not an algorithmic parameter).
	NewWorld func(p int) (*mpi.World, error) `json:"-"`
	// CheckpointDir, when non-empty, makes the engine write a durable
	// checkpoint of the per-rank artifacts after each completed stage (see
	// CheckpointEvery): one wire-encoded file per rank plus a
	// rank-0-committed MANIFEST.json, under CheckpointDir/<stage>/. A later
	// run with equal algorithmic options resumes via Engine.LoadCheckpoint.
	// Checkpoint traffic runs on the uncounted control plane and checkpoint
	// time is excluded from WallTime, so a checkpointed run's manifest is
	// identical to an unobserved one. Excluded from the run manifest
	// (operational plumbing, not an algorithmic parameter).
	CheckpointDir string `json:"-"`
	// CheckpointEvery narrows CheckpointDir: "" or "all" checkpoints after
	// every stage but the final one; a stage name checkpoints only after
	// that stage. Ignored when CheckpointDir is empty.
	CheckpointEvery string `json:"-"`
	// Async lets the transfers the kernels post early really run behind the
	// computation; false puts every rank in mpi's blocking mode, where the
	// same posts complete inside their Wait. The kernels have one schedule
	// either way: the SUMMA SpGEMM (overlap detection and transitive
	// reduction) posts the next round's panels before multiplying, the k-mer
	// exchange posts receives before packing sends, and contig generation
	// starts the read-sequence exchange before edge routing and the DFS
	// walks. Contigs and all byte/message counters are bit-identical with
	// Async on or off; only the comm_overlap/comm_exposed split and wall time
	// differ. false is the paper's blocking baseline; DefaultOptions enables
	// Async.
	Async bool
}

// DefaultOptions returns the low-error configuration at P ranks.
func DefaultOptions(p int) Options {
	return Options{
		P:            p,
		K:            31,
		XDrop:        15,
		ReliableLow:  2,
		ReliableHigh: 160,
		MinOverlap:   100,
		MinScoreFrac: 0.5,
		MaxOverhang:  80,
		TRFuzz:       150,
		TRMaxIter:    10,
		Async:        true,
	}
}

// PresetOptions tunes the parameters for a Table 2 dataset substitute,
// mirroring the paper's per-dataset settings (k=31/x=15 for the low-error
// datasets, k=17 for H. sapiens). The x-drop and score threshold for the
// 15%-error preset are recalibrated for this aligner's -2 penalties
// (DESIGN.md §2).
func PresetOptions(preset readsim.Preset, p int) Options {
	o := DefaultOptions(p)
	switch preset {
	case readsim.HSapiensLike:
		o.K = 17
		o.XDrop = 30
		o.MinScoreFrac = 0.05
		o.MinOverlap = 60
		o.MaxOverhang = 300
		o.TRFuzz = 400
		o.ReliableHigh = 60
	case readsim.OSativaLike, readsim.CElegansLike:
		// paper defaults
	}
	return o
}

// Stats aggregates the run's counters and timings. Timers, AlignedPairs,
// CommBytes/CommMsgs and WallTime are whole-job values on every process,
// folded from every rank's stage rows; the other counters are rank 0's view
// (zero on the other processes of a multi-process run).
type Stats struct {
	P              int
	Threads        int // intra-rank workers actually used (EffectiveThreads)
	NumReads       int
	NumKmers       int
	CandidatePairs int64
	// AlignedPairs is how many of CandidatePairs the Alignment stage
	// extended (summed over ranks); the rest were skipped because their
	// alignment could not change R (DESIGN.md §3).
	AlignedPairs   int64
	KeptOverlaps   int64
	ContainedReads int
	TR             tr.Stats
	NumContigs     int64
	BranchVertices int64
	AssignedReads  int64
	MaxLoad        int64 // LPT load balance extremes (reads per rank)
	MinLoad        int64
	Timers         *trace.Summary // per-stage aggregates across ranks
	CommBytes      int64          // total bytes moved by all ranks: the sum of the top-level Timers rows
	CommMsgs       int64          // total messages moved by all ranks: the sum of the top-level Timers rows
	WallTime       time.Duration  // end-to-end wall clock of the mpi run
}

// Output is the assembly result plus statistics.
type Output struct {
	Contigs []core.Contig // gathered and canonically sorted
	Stats   Stats
}

// EffectiveThreads resolves the Threads option: an explicit value wins,
// otherwise GOMAXPROCS is split across the simulated ranks so a run never
// oversubscribes the host by default.
func (o Options) EffectiveThreads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	p := o.P
	if p < 1 {
		p = 1
	}
	t := runtime.GOMAXPROCS(0) / p
	if t < 1 {
		t = 1
	}
	return t
}

// newWorld builds the rank mesh the run executes on, per Options.Transport.
// The NewWorld hook wins when set (the proc launcher's endpoint dial);
// otherwise inproc and tcp worlds are built locally.
func (o Options) newWorld() (*mpi.World, error) {
	if o.NewWorld != nil {
		w, err := o.NewWorld(o.P)
		if err != nil {
			return nil, fmt.Errorf("pipeline: NewWorld hook: %w", err)
		}
		if w.Size() != o.P {
			w.Close()
			return nil, fmt.Errorf("pipeline: NewWorld hook built a %d-rank world, want P = %d", w.Size(), o.P)
		}
		return w, nil
	}
	switch o.Transport {
	case "", TransportInproc:
		return mpi.NewWorld(o.P), nil
	case TransportTCP:
		eps, err := tcp.NewLocal(o.P)
		if err != nil {
			return nil, fmt.Errorf("pipeline: tcp transport: %w", err)
		}
		return mpi.NewWorldTransport(eps...), nil
	case TransportProc:
		return nil, fmt.Errorf("pipeline: Transport %q needs the process launcher (run via cmd/elba -transport proc)", o.Transport)
	}
	return nil, fmt.Errorf("pipeline: unknown Transport %q (want %s)", o.Transport, strings.Join(Transports(), "|"))
}

// Run assembles reads on a fresh simulated world of opt.P ranks — the
// monolithic compatibility wrapper: it plans an engine and runs every stage
// in one call. Callers that want partial runs, resume points,
// progress observers or cancellation use Plan/RunUntil/ResumeFrom directly.
func Run(reads [][]byte, opt Options) (*Output, error) {
	eng, err := Plan(opt)
	if err != nil {
		return nil, err
	}
	return eng.Run(context.Background(), reads)
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
