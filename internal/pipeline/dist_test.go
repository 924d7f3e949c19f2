package pipeline

// Distributed-run suite: each "process" of a multi-host job is simulated by
// its own engine over a world holding exactly one tcp endpoint, joined
// through a shared rendezvous — the in-test replica of cmd/elba -join
// workers, with distinct loopback interfaces standing in for machines.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/mpi/transport/tcp"
)

// startTestRendezvous serves a p-rank bootstrap on loopback and returns its
// address; the cleanup asserts the server wired all ranks.
func startTestRendezvous(t *testing.T, p int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tcp.ServeRendezvous(ln, p) }()
	t.Cleanup(func() {
		if err := <-done; err != nil {
			t.Errorf("rendezvous: %v", err)
		}
	})
	return ln.Addr().String()
}

// joinOptions configures base as rank r of a distributed job whose world
// holds a single endpoint joined at rdv, listening on host. The endpoint is
// stored through ep (when non-nil) for fault injection.
func joinOptions(base Options, rdv, host string, rank int, ep **tcp.Endpoint) Options {
	opt := base
	opt.Transport = TransportTCP
	opt.NewWorld = func(p int) (*mpi.World, error) {
		e, err := tcp.Join(rdv, rank, p, tcp.JoinConfig{Listen: net.JoinHostPort(host, "0")})
		if err != nil {
			return nil, err
		}
		if ep != nil {
			*ep = e
		}
		return mpi.NewWorldTransport(e), nil
	}
	return opt
}

// waitGoroutines waits for the process goroutine count to return to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDistributedRankFailure kills rank 2 at the start of Alignment in a
// 4-process distributed job and requires:
//
//   - every surviving process aborts promptly with an error naming the dead
//     rank, the failed stage, and the restart point (the last snapshotted
//     stage), still errors.As-unwrappable to *transport.RankFailure;
//   - the Options.OnFailure handler fires exactly once with the cause;
//   - the pre-failure artifacts are poisoned (dead world, resume refused);
//   - every rank goroutine and socket reader unwinds — no leaks.
func TestDistributedRankFailure(t *testing.T) {
	reads := testReads(8000, 631)
	const p = 4
	base := DefaultOptions(p)
	base.K = 21
	base.XDrop = 25

	goroutines := runtime.NumGoroutine()
	rdv := startTestRendezvous(t, p)
	var failures atomic.Int32
	failCause := make(chan error, 1)
	// The simulated processes share this test's address space, so the kill
	// can be synchronized deterministically: every engine signals when it
	// reaches Alignment's StageStart (i.e. has fully left DetectOverlap's
	// cross-process barrier), and rank 2 dies only once all four have — the
	// failure then lands in stage bodies, never in the engine's own
	// control-plane exchange.
	var atAlignment sync.WaitGroup
	atAlignment.Add(p)

	type result struct {
		resumeErr error // error of the killed resume
		deadErr   error // error of resuming the poisoned snapshot again
	}
	results := make([]result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				var ep *tcp.Endpoint
				opt := joinOptions(base, rdv, "127.0.0.1", r, &ep)
				if r == 0 {
					opt.OnFailure = func(err error) {
						failures.Add(1)
						select {
						case failCause <- err:
						default:
						}
					}
				}
				eng, err := Plan(opt)
				if err != nil {
					return err
				}
				arts, err := eng.RunUntil(context.Background(), reads, StageDetectOverlap)
				if err != nil {
					return fmt.Errorf("run until DetectOverlap: %w", err)
				}
				defer arts.Close()
				// Rank 2 dies as Alignment starts: cancelling its world aborts
				// its endpoint, which is how a killed worker process appears to
				// its peers (the observer runs on the engine goroutine, before
				// the stage body executes anywhere locally).
				obs := Observer{StageStart: func(stage string, _, _ int) {
					if stage != StageAlignment {
						return
					}
					atAlignment.Done()
					if r == 2 {
						atAlignment.Wait()
						arts.World.Cancel(errors.New("injected fault: rank 2 killed"))
					}
				}}
				killed, err := Plan(opt, obs)
				if err != nil {
					return err
				}
				_, resumeErr := killed.ResumeFrom(context.Background(), arts, StageExtractContig)
				if resumeErr == nil {
					return errors.New("resume survived the death of rank 2")
				}
				if arts.World.Err() == nil {
					return errors.New("world not poisoned after rank failure")
				}
				_, deadErr := eng.ResumeFrom(context.Background(), arts, StageExtractContig)
				if deadErr == nil {
					return errors.New("poisoned artifacts accepted a resume")
				}
				results[r] = result{resumeErr: resumeErr, deadErr: deadErr}
				return nil
			}()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for _, r := range []int{0, 1, 3} {
		err := results[r].resumeErr
		var rf *transport.RankFailure
		if !errors.As(err, &rf) {
			t.Fatalf("rank %d: abort is not rank-attributed: %v", r, err)
		}
		if rf.Rank != 2 {
			t.Fatalf("rank %d: abort names rank %d, want 2: %v", r, rf.Rank, err)
		}
		for _, want := range []string{"loss of rank 2", `stage "Alignment"`, StageDetectOverlap} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("rank %d: abort error lacks %q: %v", r, want, err)
			}
		}
		if !strings.Contains(results[r].deadErr.Error(), "dead") {
			t.Errorf("rank %d: poisoned-resume error does not say the artifacts are dead: %v", r, results[r].deadErr)
		}
	}
	if !strings.Contains(results[2].resumeErr.Error(), "injected fault") {
		t.Errorf("rank 2's own error lost the injected cause: %v", results[2].resumeErr)
	}
	if n := failures.Load(); n != 1 {
		t.Fatalf("OnFailure fired %d times on rank 0, want exactly once", n)
	}
	var rf *transport.RankFailure
	if cause := <-failCause; !errors.As(cause, &rf) || rf.Rank != 2 {
		t.Errorf("OnFailure cause does not name rank 2: %v", cause)
	}
	waitGoroutines(t, goroutines)
}
