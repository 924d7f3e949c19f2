package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Observer receives engine progress callbacks. Fields may be nil. Callbacks
// run on the engine's calling goroutine between stage executions — never on
// a rank goroutine — so they may cancel the run's context, read the
// artifacts, or feed the Summary straight into perfmodel without locking.
type Observer struct {
	// StageStart fires before stage index (of total) begins executing.
	StageStart func(stage string, index, total int)
	// StageEnd fires after a stage's barrier with the wall time of the stage
	// and the artifacts' Summary: every rank's rows so far, the finished
	// stage's under its own name. It covers the whole job on every process
	// of a multi-process run too (each rank's rows reach every process on the
	// uncounted control plane), and observing never perturbs the run's
	// traffic counters.
	StageEnd func(stage string, ranks *trace.Summary, wall time.Duration)
}

// Engine runs the pipeline's stages. Plan validates the options once;
// RunUntil executes a prefix of the stages on a fresh simulated world and
// ResumeFrom continues from a previous run's Artifacts — under this engine's
// options, which may differ in parameters downstream of the resume point
// (the TR-parameter sweep use case: TRFuzz and TRMaxIter; MaxOverhang is
// part of the Alignment prefix). Contigs are bit-identical, and
// byte/message counters equal, between a monolithic run and any chain of
// partial runs, for every (P, threads, backend, sync/async) combination.
type Engine struct {
	opt Options
	obs []Observer
}

// Plan validates opt (reporting all violations at once) and builds an
// engine over the paper's stages.
func Plan(opt Options, obs ...Observer) (*Engine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return &Engine{opt: opt, obs: obs}, nil
}

// Run assembles reads end to end: every stage on a fresh world. The
// world is closed before returning (the artifacts are not exposed, so there
// is nothing to resume) — for the socket-backed transports this is the
// polite connection drain; for inproc it is a no-op.
func (e *Engine) Run(ctx context.Context, reads [][]byte) (*Output, error) {
	a, err := e.RunUntil(ctx, reads, StageExtractContig)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	return a.Output()
}

// RunUntil executes the stages on a fresh simulated world of P ranks,
// stopping after stage `until` completes, and returns the Artifacts
// snapshot. If ctx is cancelled mid-stage the world is cancelled, every rank
// goroutine unwinds promptly, and RunUntil returns ctx.Err(); the artifacts
// are then dead (their world is poisoned).
func (e *Engine) RunUntil(ctx context.Context, reads [][]byte, until string) (*Artifacts, error) {
	idx, err := stageIndex(until)
	if err != nil {
		return nil, err
	}
	a, err := newArtifacts(e.opt, reads)
	if err != nil {
		return nil, err
	}
	return e.resume(ctx, a, idx)
}

// ResumeFrom continues the stages from the last one completed in a, running
// the remaining stages up to and including `until` under this engine's
// options. The given artifacts are forked, not modified: one snapshot can
// seed any number of resumed chains (a parameter sweep re-runs only the
// stages downstream of the snapshot). The engine's options must agree with
// the snapshot's on everything upstream of the resume point — P is checked
// (the world's shape is baked into the artifacts); upstream algorithmic
// parameters (K, alignment settings, …) are the caller's responsibility.
func (e *Engine) ResumeFrom(ctx context.Context, a *Artifacts, until string) (*Artifacts, error) {
	idx, err := stageIndex(until)
	if err != nil {
		return nil, err
	}
	if e.opt.P != len(a.Ranks) {
		return nil, fmt.Errorf("pipeline: engine P=%d cannot resume artifacts of a %d-rank world", e.opt.P, len(a.Ranks))
	}
	if err := a.World.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: artifacts are dead (world cancelled: %w)", err)
	}
	if idx < a.done {
		return nil, fmt.Errorf("pipeline: stage %q already complete in these artifacts (resume point: after %q)", until, a.Stage())
	}
	return e.resume(ctx, a.fork(e.opt), idx)
}

// resume drives stages[a.done..untilIdx] on a's world, one engine-level
// barrier per stage. Stage bodies reuse the communicators stored in the
// RankStates, so the op (and therefore traffic) sequence is identical to a
// monolithic run; the per-stage world.Run only adds a goroutine join.
func (e *Engine) resume(ctx context.Context, a *Artifacts, untilIdx int) (*Artifacts, error) {
	a.exec.Lock()
	defer a.exec.Unlock()
	for i := a.done; i <= untilIdx; i++ {
		st := stages[i]
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				a.World.Cancel(err)
				return nil, err
			}
		}
		for _, ob := range e.obs {
			if ob.StageStart != nil {
				ob.StageStart(st.name, i, len(stages))
			}
		}
		var shared atomic.Pointer[[]report]
		start := time.Now()
		runErr := a.World.RunCtx(ctx, func(c *mpi.Comm) {
			rank := c.Rank()
			// One schedule in every kernel; whether its posted transfers run
			// behind the computation is the rank's mode.
			c.SetBlocking(!e.opt.Async)
			// Deterministic fault injection (chaos tests and the nightly CI
			// job): one atomic load when nothing is armed.
			faultinject.At(st.name, rank)
			lane := c.Lane()
			spanStart := lane.Start()
			// The stage's row: the one place its time and traffic are
			// measured. pprof labels let CPU profiles slice samples by stage
			// and rank (`go tool pprof -tagfocus stage=Alignment`).
			a.Ranks[rank].Timers.Stage(st.name, c, func() {
				pprof.Do(context.Background(),
					pprof.Labels("stage", st.name, "rank", strconv.Itoa(rank)),
					func(context.Context) { st.run(e.opt, a, a.Ranks[rank]) })
			})
			lane.Span(0, "stage", st.name, spanStart, obs.Arg{K: "index", V: int64(i)})
			a.share(rank, &shared)
		})
		wall := time.Since(start)
		if runErr != nil {
			return nil, e.abortError(st.name, a, runErr)
		}
		a.fold(shared.Load())
		a.wall += wall
		a.done++
		if e.checkpointAfter(st.name) {
			// Durable resume point: persisted after the stage's row lands
			// (the rank files carry every row so far) and before
			// observers see the stage as complete. Checkpoint I/O and the
			// hash gather run outside the stage's traffic window, on the
			// uncounted control plane — totals stay equal to an
			// unobserved run's.
			if cerr := e.writeCheckpoint(ctx, a); cerr != nil {
				return nil, cerr
			}
		}
		for _, ob := range e.obs {
			if ob.StageEnd != nil {
				ob.StageEnd(st.name, a.sum, wall)
			}
		}
	}
	return a, nil
}

// abortError decorates a failed stage execution. A transport-attributed rank
// death (a worker process died, its connection broke, or it aborted) is
// wrapped to name the failed stage, the dead rank, and — when earlier stages
// completed — the per-stage restart point a pre-failure snapshot could
// ResumeFrom on a fresh world. The original chain is preserved, so
// errors.As(err, **transport.RankFailure) still identifies the rank.
func (e *Engine) abortError(stage string, a *Artifacts, err error) error {
	var rf *transport.RankFailure
	if !errors.As(err, &rf) {
		return err
	}
	if restart := a.Stage(); restart != "" {
		return fmt.Errorf("pipeline: stage %q aborted by the loss of rank %d (restart point: a snapshot completed through %q can resume from there): %w",
			stage, rf.Rank, restart, err)
	}
	return fmt.Errorf("pipeline: stage %q aborted by the loss of rank %d (no completed stages; restart the run from scratch): %w",
		stage, rf.Rank, err)
}
