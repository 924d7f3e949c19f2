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

	Kmers       *kmer.Result               // CountKmer: reliable k-mer columns + A-matrix triples
	Candidates  *spmat.Dist[overlap.Seeds] // DetectOverlap: C = A·Aᵀ, one direction per pair
	Overlap     *overlap.Result            // CountKmer…Alignment: accumulating counters, A and R
	StringGraph *spmat.Dist[bidir.Edge]    // TrReduction: reduced bidirected string graph
	TRStats     tr.Stats                   // TrReduction: iteration/edge counters
	Contig      *core.Result               // ExtractContig: this rank's contigs + global stats
}

// Artifacts is the typed bag a (partial) pipeline run produces: the
// simulated world, the per-rank stage outputs, and — once the final stage
// has run — the gathered contigs and statistics. An Artifacts value is a
// resume point: Engine.ResumeFrom continues from the last completed stage,
// under the same or downstream-modified options.
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

	// sum is the cross-rank fold of every rank's Timers, replaced after each
	// stage, never mutated; observers and Output read it.
	// Chain-local like the Timers it folds, so a fork reports what a
	// monolithic run would even when sibling forks share the world.
	sum  *trace.Summary
	wall time.Duration

	// exec serializes stage execution across all forks sharing the world.
	exec *sync.Mutex

	// Final-stage output, stored by rank 0 under mu.
	mu      sync.Mutex
	contigs []core.Contig
	stats   Stats
}

// newArtifacts prepares the bag for a fresh run: a new world (built per
// Options.Transport), one RankState per rank holding its persistent
// communicator and, in a multi-process world, its ranks' agreement that
// they run one job (agreeOnJob); a world that disagrees is closed.
func newArtifacts(ctx context.Context, opt Options, reads [][]byte) (*Artifacts, error) {
	w, err := opt.newWorld()
	if err != nil {
		return nil, err
	}
	// Observability attaches to the world before any rank starts; forks share
	// the world and therefore the same trace lanes and metric registries.
	w.SetObs(opt.Trace, opt.Metrics)
	a := &Artifacts{
		Opt:   opt,
		World: w,
		Reads: reads,
		Ranks: make([]*RankState, opt.P),
		ctl:   make([]*mpi.Comm, opt.P),
		sum:   trace.Aggregate(nil),
		exec:  &sync.Mutex{},
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
// stage rows and, when its process keeps metrics, its metric snapshot. A
// multi-process world all-gathers it once per stage on the uncounted control
// plane; in-process every rank's Timers and registry are already in this
// address space and nothing is gathered.
type report struct {
	Rows    []trace.Record
	Metrics []obs.Metric
}

// share is a rank body's last step. In a multi-process world it all-gathers
// the rank's report on the control plane (doubling as the cross-process
// barrier) for fold. Every process joins, whether or not it keeps metrics:
// in a -join job every process has its own command line, and a sequence
// conditional on a local flag would deadlock the world.
func (a *Artifacts) share(rank int, shared *atomic.Pointer[[]report]) {
	if !a.World.Distributed() {
		return
	}
	all := mpi.Allgather(a.ctl[rank], report{
		Rows:    a.Ranks[rank].Timers.Records(),
		Metrics: a.Opt.Metrics.Rank(rank).Snapshot(),
	})
	shared.Store(&all)
}

// fold refreshes the summary after a world execution. In-process every
// rank's Timers is in this address space; a multi-process world passes the
// reports its ranks all-gathered in share instead, since this process holds
// only its own ranks' Timers and registries. Every other process's metric
// snapshot replaces that rank's registry here (a process without metrics
// sent none, which leaves the rank empty), so this process's metrics cover
// the world after every stage, as its rows do.
func (a *Artifacts) fold(shared *[]report) {
	ts := make([]*trace.Timers, 0, len(a.Ranks))
	if shared != nil {
		local := a.World.Local()
		for r, rep := range *shared {
			ts = append(ts, trace.FromRecords(rep.Rows))
			if !slices.Contains(local, r) {
				a.Opt.Metrics.SetSnapshot(r, rep.Metrics)
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
// naming the stage they stopped at. The run's traffic totals are the sums of
// its top-level stage rows.
func (a *Artifacts) Output() (*Output, error) {
	if a.Stage() != StageExtractContig {
		return nil, fmt.Errorf("pipeline: artifacts stop after stage %q; resume through %q for contigs",
			a.Stage(), StageExtractContig)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := &Output{Contigs: a.contigs, Stats: a.stats}
	st := &out.Stats
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

// storeOutput records the final stage's rank-0 view.
func (a *Artifacts) storeOutput(contigs []core.Contig, stats Stats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.contigs = contigs
	a.stats = stats
}

// fork snapshots the bag for an independent continuation: per-rank states
// are copied, timers deep-copied, and the accumulating overlap result
// copied by value, so stages run on the fork never touch the original.
// World, reads and the execution lock are shared.
func (a *Artifacts) fork(opt Options) *Artifacts {
	f := &Artifacts{
		Opt:   opt,
		World: a.World,
		Reads: a.Reads,
		Ranks: make([]*RankState, len(a.Ranks)),
		done:  a.done,
		ctl:   a.ctl,
		sum:   a.sum,
		wall:  a.wall,
		exec:  a.exec,
	}
	for i, rs := range a.Ranks {
		cp := *rs
		cp.Timers = rs.Timers.Clone()
		if rs.Overlap != nil {
			o := *rs.Overlap
			cp.Overlap = &o
		}
		f.Ranks[i] = &cp
	}
	return f
}
