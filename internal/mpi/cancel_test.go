package mpi

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/mpi/transport"
)

// waitGoroutinesBelow polls until the process goroutine count drops back to
// the captured baseline (cancellation unwinds asynchronously).
func waitGoroutinesBelow(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancellation: %d, baseline %d", runtime.NumGoroutine(), base)
}

func TestRunCtxCancelUnblocksBlockedRecv(t *testing.T) {
	base := runtime.NumGoroutine()
	w := NewWorld(4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := w.RunCtx(ctx, func(c *Comm) {
		if c.Rank() == 0 {
			// Rank 0 blocks on a message nobody sends; the others block in a
			// collective that can never complete without rank 0.
			Recv[int64](c, 1, 999)
			return
		}
		Barrier(c)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx after cancel: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt unwind", d)
	}
	waitGoroutinesBelow(t, base)
}

func TestRunCtxCancelUnwindsPostedIrecv(t *testing.T) {
	base := runtime.NumGoroutine()
	w := NewWorld(2)
	ctx, cancel := context.WithCancel(context.Background())
	posted := make(chan struct{})
	go func() {
		<-posted
		cancel()
	}()
	err := w.RunCtx(ctx, func(c *Comm) {
		if c.Rank() == 0 {
			// A posted receive whose matching send never comes: its background
			// matcher must also unwind on cancellation.
			req := Irecv[int64](c, 1, 777)
			close(posted)
			req.Wait()
			return
		}
		Recv[int64](c, 0, 778)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx after cancel: err = %v, want context.Canceled", err)
	}
	waitGoroutinesBelow(t, base)
}

func TestRunCtxPreCancelledDoesNotRun(t *testing.T) {
	w := NewWorld(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := w.RunCtx(ctx, func(c *Comm) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("rank body ran on a pre-cancelled context")
	}
}

func TestCancelledWorldStaysCancelled(t *testing.T) {
	w := NewWorld(2)
	cause := errors.New("operator abort")
	w.Cancel(cause)
	w.Cancel(errors.New("second cause loses"))
	if err := w.Err(); !errors.Is(err, cause) {
		t.Fatalf("Err() = %v, want first cause", err)
	}
	// Both Run and RunCtx refuse a poisoned world.
	if err := w.RunCtx(context.Background(), func(c *Comm) {
		Barrier(c)
	}); !errors.Is(err, cause) {
		t.Fatalf("RunCtx on cancelled world: err = %v, want cause", err)
	}
}

func TestRunCtxNilContextCompletes(t *testing.T) {
	w := NewWorld(4)
	sum := make([]int64, 4)
	err := w.RunCtx(nil, func(c *Comm) {
		vals := Allgather(c, int64(c.Rank()))
		var s int64
		for _, v := range vals {
			s += v
		}
		sum[c.Rank()] = s
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range sum {
		if s != 6 {
			t.Fatalf("rank %d: sum = %d, want 6", r, s)
		}
	}
}

// unseenDeathTransport is rank 0 of a two-rank job whose peer died without
// this side's reader noticing: the first it hears of it is a failed write,
// reported the way transport/tcp reports one.
type unseenDeathTransport struct {
	transport.Transport
	aborts chan int // origin of every Abort
}

func (d *unseenDeathTransport) Size() int { return 2 }
func (d *unseenDeathTransport) Send(dst int, _ transport.Message) error {
	return &transport.RankFailure{Rank: dst, Err: errors.New("write: connection reset by peer")}
}
func (d *unseenDeathTransport) Abort(origin int, _ string) { d.aborts <- origin }

// TestSendFailureAbortNamesDeadRank: when a send is how a rank learns of a
// peer's death, the run error and the abort it relays to the other peers must
// both name the dead rank, not the sender.
func TestSendFailureAbortNamesDeadRank(t *testing.T) {
	ep := &unseenDeathTransport{Transport: transport.NewInproc(1)[0], aborts: make(chan int, 2)}
	err := NewWorldTransport(ep).Run(func(c *Comm) { Send(c, 1, 5, []int64{1}) })
	var rf *transport.RankFailure
	if !errors.As(err, &rf) || rf.Rank != 1 {
		t.Fatalf("run error %v, want a RankFailure naming rank 1", err)
	}
	if origin := <-ep.aborts; origin != 1 {
		t.Fatalf("relayed abort names rank %d, want 1", origin)
	}
}

// abortRecorder is an endpoint that records the origin of every Abort.
type abortRecorder struct {
	transport.Transport
	aborts chan int
}

func (a *abortRecorder) Abort(origin int, _ string) { a.aborts <- origin }

// TestRankPanicCancelsWorld: a panicking rank fails the world at once. Peers
// blocked in Recv unwind, so Run returns well inside the default watchdog,
// with the *RankError itself, and the abort relayed to every endpoint names
// the rank that panicked.
func TestRankPanicCancelsWorld(t *testing.T) {
	eps := transport.NewInproc(3)
	aborts := make(chan int, len(eps))
	for i, ep := range eps {
		eps[i] = &abortRecorder{Transport: ep, aborts: aborts}
	}
	w := NewWorldTransport(eps...)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) {
			if c.Rank() == 1 {
				panic("boom")
			}
			Recv[int64](c, 1, 0) // never sent
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run still waiting 2 s after a rank panicked")
	}
	if re, ok := err.(*RankError); !ok || re.Rank != 1 {
		t.Fatalf("Run returned %v, want the *RankError of rank 1", err)
	}
	for range eps {
		select {
		case origin := <-aborts:
			if origin != 1 {
				t.Fatalf("abort names rank %d, want 1", origin)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("an endpoint was never aborted")
		}
	}
}
