package pipeline

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bidir"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/mpi/wire"
	"repro/internal/obs"
	"repro/internal/overlap"
	"repro/internal/spmat"
	"repro/internal/tr"
	"repro/internal/trace"
)

// RankState is one simulated rank's slot of the Artifacts bag. Each field is
// the output of the stage it is labelled with; a stage reads the fields of
// the stages before it and replaces (never mutates) its own, which is what
// makes a snapshot safe to resume from any number of times.
type RankState struct {
	Comm   *mpi.Comm        // this rank's world communicator (persistent across stages)
	Grid   *grid.Grid       // FastaReader: √P×√P process grid
	Store  *fasta.DistStore // FastaReader: block-distributed read store
	Timers *trace.Timers    // per-rank stage rows, timed by the engine (forked on resume)

	Kmers       *kmer.Result               // CountKmer: the rank's columns of A (spmat.Columns)
	Candidates  *spmat.Dist[overlap.Seeds] // DetectOverlap: C = A·Aᵀ, packed seed pairs, one direction per pair
	Overlap     *overlap.Result            // DetectOverlap: k-mer and candidate counts; Alignment: a copy adding R, contained reads, kept count
	StringGraph *spmat.Dist[bidir.Edge]    // TrReduction: reduced bidirected string graph
	TRStats     tr.Stats                   // TrReduction: iteration/edge counters
	Contig      *core.Result               // ExtractContig: global stats; at rank 0, every rank's contigs, gathered
}

// Artifacts is the typed bag a (partial) pipeline run produces: the
// simulated world and the per-rank stage outputs, from which Output reads
// the gathered contigs and statistics once the final stage has run. An
// Artifacts value is a resume point: Engine.ResumeFrom continues from the
// last completed stage, under the same or downstream-modified options.
//
// Snapshot semantics: ResumeFrom never modifies the artifacts it is given
// (it forks them), so one post-Alignment snapshot can seed an entire
// TR-parameter sweep without re-running the expensive overlap phase. All
// chains forked from one snapshot share the underlying simulated world;
// their stage executions are serialized internally (communicator sequence
// counters must advance identically on every rank), so forks may be resumed
// from any goroutine, one run at a time. A cancelled world poisons every
// chain sharing it — cancellation is for abandoning a run, not pausing it.
type Artifacts struct {
	Opt   Options    // options of the most recent engine to run stages
	World *mpi.World // the simulated machine (shared by all forks)
	Reads [][]byte   // FastaReader input
	Ranks []*RankState

	done int // completed stages: the prefix stages[:done]

	// ctl holds one uncounted control communicator per rank: the engine's
	// per-stage report gather runs on it, invisible to the traffic counters
	// the pipeline reports. Shared by forks, like the world.
	ctl []*mpi.Comm

	// metrics is the run's metric set, one registry per rank, bound to the
	// world with the trace. Shared by forks, like the world, so a fork's
	// snapshot holds every stage executed on the world, its siblings' too.
	metrics *obs.MetricSet

	// sum is the cross-rank fold of every rank's Timers, replaced after each
	// stage, never mutated; observers and Output read it.
	// Chain-local like the Timers it folds, so a fork reports what a
	// monolithic run would even when sibling forks share the world.
	sum  *trace.Summary
	wall time.Duration

	// exec serializes stage execution across all forks sharing the world.
	exec *sync.Mutex
}

// newArtifacts prepares the bag for a fresh run: a new world (built per
// Options.Transport) with the run's metric set bound to it, one RankState
// per rank holding its persistent communicator and, in a multi-process
// world, its ranks' agreement that they run one job (agreeOnJob); a world
// that disagrees is closed.
func newArtifacts(ctx context.Context, opt Options, reads [][]byte) (*Artifacts, error) {
	w, err := opt.newWorld()
	if err != nil {
		return nil, err
	}
	// Observability attaches to the world before any rank starts; forks share
	// the world and therefore the same trace lanes and metric registries.
	metrics := obs.NewMetricSet(opt.P)
	w.SetObs(opt.Trace, metrics)
	a := &Artifacts{
		Opt:     opt,
		World:   w,
		Reads:   reads,
		Ranks:   make([]*RankState, opt.P),
		ctl:     make([]*mpi.Comm, opt.P),
		metrics: metrics,
		sum:     trace.Aggregate(nil),
		exec:    &sync.Mutex{},
	}
	for r := range a.Ranks {
		a.Ranks[r] = &RankState{Comm: w.Comm(r), Timers: trace.New()}
		a.ctl[r] = w.ControlComm(r)
	}
	if err := a.agreeOnJob(ctx); err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// Close releases the world's transport endpoints (sockets, for the tcp and
// proc transports; a no-op for inproc). After Close the artifacts — and
// every fork sharing the world — can no longer be resumed. Callers that only
// need the Output of a finished run may skip it for inproc worlds.
func (a *Artifacts) Close() error { return a.World.Close() }

// Stage returns the name of the last completed stage ("" before any).
func (a *Artifacts) Stage() string {
	if a.done == 0 {
		return ""
	}
	return stages[a.done-1].name
}

// jobParts names what every rank of a multi-process world must share before
// its first stage. In a -join job every process has its own command line and
// its own copy of the reads, so nothing else makes them one job.
var jobParts = [...]string{"options fingerprint", "P", "codec fingerprint", "reads checksum"}

// agreeOnJob is a multi-process world's first collective: every rank
// all-gathers its jobParts — the codec's is the rank checkpoint's wire
// fingerprint, which covers every artifact type — on the uncounted control
// plane, and every process fails with the same error, naming the first rank
// whose parts are not rank 0's and the part that differs. In process every
// rank shares one Options and one read set, and nothing is gathered.
func (a *Artifacts) agreeOnJob(ctx context.Context) error {
	if !a.World.Distributed() {
		return nil
	}
	mine := [len(jobParts)]string{a.Opt.Fingerprint(), strconv.Itoa(a.Opt.P),
		fmt.Sprintf("%08x", wire.Fingerprint[ckptRank]()), obs.ChecksumSeqs(a.Reads)}
	var verdict atomic.Pointer[error] // every local rank reaches the same one
	runErr := a.World.RunCtx(ctx, func(c *mpi.Comm) {
		all := mpi.Allgather(a.ctl[c.Rank()], mine)
		for r, parts := range all {
			for i, part := range parts {
				if part != all[0][i] {
					err := fmt.Errorf("pipeline: rank %d does not run rank 0's job: its %s %.12s is not %.12s (every rank of a world needs the same options, P, build and reads)",
						r, jobParts[i], part, all[0][i])
					verdict.Store(&err)
					return
				}
			}
		}
	})
	if err := verdict.Load(); runErr == nil && err != nil {
		return *err
	}
	return runErr
}

// report is what one rank tells every other process after a stage: its
// stage rows and its metric snapshot. A multi-process world all-gathers it
// once per stage on the uncounted control plane; in-process every rank's
// Timers and registry are already in this address space and nothing is
// gathered.
type report struct {
	Rows    []trace.Record
	Metrics []obs.Metric
}

// share is a rank body's last step. In a multi-process world it all-gathers
// the rank's report on the control plane (doubling as the cross-process
// barrier) for fold.
func (a *Artifacts) share(rank int, shared *atomic.Pointer[[]report]) {
	if !a.World.Distributed() {
		return
	}
	all := mpi.Allgather(a.ctl[rank], report{
		Rows:    a.Ranks[rank].Timers.Records(),
		Metrics: a.metrics.Rank(rank).Snapshot(),
	})
	shared.Store(&all)
}

// fold refreshes the summary after a world execution. In-process every
// rank's Timers is in this address space; a multi-process world passes the
// reports its ranks all-gathered in share instead, since this process holds
// only its own ranks' Timers and registries. Every other process's metric
// snapshot replaces that rank's registry here, so this process's metrics
// cover the world after every stage, as its rows do.
func (a *Artifacts) fold(shared *[]report) {
	ts := make([]*trace.Timers, 0, len(a.Ranks))
	if shared != nil {
		local := a.World.Local()
		for r, rep := range *shared {
			ts = append(ts, trace.FromRecords(rep.Rows))
			if !slices.Contains(local, r) {
				a.metrics.SetSnapshot(r, rep.Metrics)
			}
		}
	} else {
		for _, rs := range a.Ranks {
			ts = append(ts, rs.Timers)
		}
	}
	a.sum = trace.Aggregate(ts)
}

// Output returns the assembly result. It is available only once the final
// stage (ExtractContig) has completed; partial artifacts return an error
// naming the stage they stopped at. Every Stats field is built here: the
// counters from the options, the read set and rank 0's stage outputs (left
// zero in a process that does not hold rank 0), the traffic totals as the
// sums of the run's top-level stage rows. The output also keeps every rank's
// metric snapshot, taken now, and the options the last engine ran under,
// for its Manifest.
func (a *Artifacts) Output() (*Output, error) {
	if a.Stage() != StageExtractContig {
		return nil, fmt.Errorf("pipeline: artifacts stop after stage %q; resume through %q for contigs",
			a.Stage(), StageExtractContig)
	}
	out := &Output{opt: a.Opt, perRank: a.metrics.Snapshots()}
	st := &out.Stats
	if rs := a.Ranks[0]; rs.Contig != nil {
		ov, cres := rs.Overlap, rs.Contig
		out.Contigs = cres.Contigs
		*st = Stats{
			P:              a.Opt.P,
			Threads:        a.Opt.EffectiveThreads(),
			NumReads:       len(a.Reads),
			NumKmers:       ov.NumKmers,
			CandidatePairs: ov.CandidatePairs,
			KeptOverlaps:   ov.KeptOverlaps,
			ContainedReads: len(ov.Contained),
			TR:             rs.TRStats,
			NumContigs:     cres.NumContigs,
			BranchVertices: cres.BranchVertices,
			AssignedReads:  cres.AssignedReads,
			MaxLoad:        cres.MaxLoad,
			MinLoad:        cres.MinLoad,
		}
	}
	st.Timers, st.WallTime = a.sum, a.wall
	for _, phase := range AlignmentPhases {
		st.AlignedPairs += a.sum.Get(phase).SumWork
	}
	for _, s := range stages[:a.done] {
		e := a.sum.Get(s.name)
		st.CommBytes += e.SumBytes
		st.CommMsgs += e.SumMsgs
	}
	return out, nil
}

// fork snapshots the bag for an independent continuation: per-rank states
// are copied and their timers deep-copied, the one field every stage writes
// into. Every other field is a stage's output, which later stages replace
// and never mutate, so stages run on the fork never touch the original.
// World, reads, metric set and the execution lock are shared.
func (a *Artifacts) fork(opt Options) *Artifacts {
	f := &Artifacts{
		Opt:     opt,
		World:   a.World,
		Reads:   a.Reads,
		Ranks:   make([]*RankState, len(a.Ranks)),
		done:    a.done,
		ctl:     a.ctl,
		metrics: a.metrics,
		sum:     a.sum,
		wall:    a.wall,
		exec:    a.exec,
	}
	for i, rs := range a.Ranks {
		cp := *rs
		cp.Timers = rs.Timers.Clone()
		f.Ranks[i] = &cp
	}
	return f
}
