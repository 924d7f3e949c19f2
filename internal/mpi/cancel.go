package mpi

// Cooperative cancellation of a simulated world.
//
// MPI has no first-class cancellation; a real ELBA run that must stop early
// is killed. The simulator can do better: a World carries a cancel channel
// that every blocked receive (and therefore every collective, which is built
// on receives) selects on. Cancelling the world wakes all of them at once;
// each panics with a private sentinel that Run recognises and swallows, so
// every rank goroutine — and every background matcher goroutine of a posted
// nonblocking receive — unwinds promptly instead of deadlocking on peers
// that died. RunCtx ties this to a context.Context, which is how the
// pipeline engine threads ctx through a run.
//
// Cancellation is one-way: a cancelled world stays cancelled, and every
// subsequent communication on it unwinds immediately. Callers that want to
// continue must build a fresh world (the pipeline engine treats cancelled
// artifacts as dead for this reason).

import (
	"context"
	"errors"

	"repro/internal/mpi/transport"
)

// cancelPanic unwinds a rank goroutine after a world cancellation. Run and
// the background matchers recognise it and do not report it as a rank error.
type cancelPanic struct{ err error }

func (p cancelPanic) String() string {
	return "mpi: world cancelled: " + p.err.Error()
}

// Cancel aborts the world: every rank blocked in a receive (or in any
// collective) wakes and unwinds, and every future communication on the world
// unwinds immediately. The first cause wins; nil means context.Canceled.
// Safe to call from any goroutine, any number of times.
//
// In a multi-process world the local endpoints are also aborted, which
// propagates the failure to peer processes (their transports invoke the
// failure handler, cancelling their worlds in turn) — the distributed
// analogue of every in-process rank selecting on one cancel channel.
func (w *World) Cancel(cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	w.cancelMu.Lock()
	if w.cancelErr != nil {
		w.cancelMu.Unlock()
		return
	}
	w.cancelErr = cause
	close(w.cancelCh)
	w.cancelMu.Unlock()
	origin := failureOrigin(cause)
	for _, r := range w.local {
		// Abort may block on socket writes; never under cancelMu, and never
		// on the canceller's goroutine.
		go w.eps[r].Abort(origin, cause.Error())
	}
}

// failureOrigin extracts the world rank a cancellation cause is attributed
// to — a cascade triggered by a peer's death keeps blaming that peer when
// the abort is rebroadcast, and a rank panic blames the rank that panicked —
// or -1 when the cause is local (context cancellation).
func failureOrigin(cause error) int {
	var rf *transport.RankFailure
	if errors.As(cause, &rf) {
		return rf.Rank
	}
	var re *RankError
	if errors.As(cause, &re) {
		return re.Rank
	}
	return -1
}

// Err returns the cancellation cause, or nil while the world is live.
func (w *World) Err() error {
	w.cancelMu.Lock()
	defer w.cancelMu.Unlock()
	return w.cancelErr
}

// checkCancel panics with the cancellation sentinel if the world has been
// cancelled. Called on every receive wait so blocked ranks unwind promptly.
func (w *World) checkCancel() {
	select {
	case <-w.cancelCh:
		panic(cancelPanic{w.cancelErr})
	default:
	}
}

// RunCtx is Run under a context: if ctx is cancelled while ranks execute,
// the world is cancelled (waking every blocked rank) and RunCtx returns
// ctx.Err(). A world that was already cancelled returns its cause without
// starting any rank. A ctx that is already cancelled on entry likewise
// starts no rank, but it does cancel the world first — a run requested
// under a dead context poisons the world exactly as a mid-run cancellation
// would, so Err reports the cause no matter where the cancellation lands
// relative to the stage boundaries above.
func (w *World) RunCtx(ctx context.Context, fn func(*Comm)) error {
	if err := w.Err(); err != nil {
		return err
	}
	if ctx == nil || ctx.Done() == nil {
		return w.Run(fn)
	}
	if err := ctx.Err(); err != nil {
		w.Cancel(err)
		return w.Err()
	}
	stop := make(chan struct{})
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		select {
		case <-ctx.Done():
			w.Cancel(ctx.Err())
		case <-stop:
		}
	}()
	err := w.Run(fn)
	// Stand the watcher down and WAIT for it before deciding the outcome:
	// a cancellation racing the final ranks must either be reported by this
	// very call or not poison the world at all — never poison a snapshot
	// whose RunCtx already returned success.
	close(stop)
	<-parked
	if cerr := w.Err(); cerr != nil {
		return cerr
	}
	return err
}
