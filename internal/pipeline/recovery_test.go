package pipeline

// Supervised-recovery suite: the crash half of the durability story. A rank
// dies mid-run in a distributed job, the survivors abort with the attributed
// error, and a fresh worker group resumed from the checkpoint the doomed run
// left behind must finish with contigs and traffic counters bit-identical to
// an undisturbed run — the standing invariant the chaos CI job enforces on
// the real process launcher.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/mpi/transport/tcp"
)

// TestFaultInjectionHookFiresInEngine pins the engine-side injection seam:
// an armed fault fires exactly once, at the named stage, on the named rank's
// engine goroutine, and the run is otherwise unperturbed (the test action
// replaces the real kill). This is the in-process proof that ELBA_FAULT
// specs reach real stage boundaries.
func TestFaultInjectionHookFiresInEngine(t *testing.T) {
	type hit struct {
		mode  string
		stage string
	}
	var (
		mu   sync.Mutex
		hits []hit
	)
	faultinject.Arm(&faultinject.Fault{Mode: faultinject.ModeKill, Rank: 2, Stage: StageAlignment, N: 1})
	faultinject.SetAction(func(f *faultinject.Fault) {
		mu.Lock()
		hits = append(hits, hit{f.Mode, f.Stage})
		mu.Unlock()
	})
	defer func() {
		faultinject.Arm(nil)
		faultinject.SetAction(nil)
	}()

	reads := testReads(5000, 677)
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	out, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Contigs) == 0 {
		t.Fatal("no contigs")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hits) != 1 || hits[0] != (hit{faultinject.ModeKill, StageAlignment}) {
		t.Fatalf("fault fired %+v, want exactly once at %s", hits, StageAlignment)
	}
}

// TestRecoveryFromCheckpointAfterRankLoss is the full crash-and-recover
// equivalence over a simulated 4-process distributed job:
//
//  1. a checkpointed run loses rank 2 as Alignment starts — every process
//     aborts with the PR 8 attributed error naming the dead rank and the
//     restart point;
//  2. the most advanced committed checkpoint is DetectOverlap's (every rank
//     passed its commit before the kill);
//  3. a completely fresh worker group — new rendezvous, new worlds, exactly
//     what the proc supervisor relaunches — resumes from that checkpoint and
//     finishes with contigs and traffic counters bit-identical to an
//     undisturbed single-process run.
func TestRecoveryFromCheckpointAfterRankLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed recovery run in -short mode")
	}
	_, reads := matrixInput()
	ref := check(t, reference)
	p := reference.p

	dir := t.TempDir()
	ck := reference.options()
	ck.CheckpointDir = dir // CheckpointEvery "": every stage boundary

	// distOptions wires rank r of a distributed job, capturing its world so
	// the kill below can use the documented death path (Cancel aborts the
	// endpoint — how a dying worker process appears to its peers).
	distOptions := func(rdv string, r int, w **mpi.World) Options {
		opt := ck
		opt.Transport = TransportTCP
		opt.NewWorld = func(np int) (*mpi.World, error) {
			ep, err := tcp.Join(rdv, r, np, tcp.JoinConfig{Listen: "127.0.0.1:0"})
			if err != nil {
				return nil, err
			}
			world := mpi.NewWorldTransport(ep)
			if w != nil {
				*w = world
			}
			return world, nil
		}
		return opt
	}

	// Doomed attempt: rank 2 dies only once every engine has reached
	// Alignment's StageStart — i.e. after all four committed the
	// DetectOverlap checkpoint — so the surviving commit is deterministic.
	rdv := startTestRendezvous(t, p)
	var atAlignment sync.WaitGroup
	atAlignment.Add(p)
	attemptErrs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var world *mpi.World
			obs := Observer{StageStart: func(stage string, _, _ int) {
				if stage != StageAlignment {
					return
				}
				atAlignment.Done()
				if r == 2 {
					atAlignment.Wait()
					world.Cancel(errors.New("injected fault: rank 2 killed"))
				}
			}}
			eng, err := Plan(distOptions(rdv, r, &world), obs)
			if err != nil {
				attemptErrs[r] = err
				return
			}
			_, attemptErrs[r] = eng.Run(context.Background(), reads)
		}(r)
	}
	wg.Wait()
	for r, err := range attemptErrs {
		if err == nil {
			t.Fatalf("rank %d survived the death of rank 2", r)
		}
	}
	var rf *transport.RankFailure
	if !errors.As(attemptErrs[0], &rf) || rf.Rank != 2 {
		t.Fatalf("rank 0's abort is not attributed to rank 2: %v", attemptErrs[0])
	}
	if !strings.Contains(attemptErrs[0].Error(), StageDetectOverlap) {
		t.Errorf("rank 0's abort does not name the restart point: %v", attemptErrs[0])
	}

	// The doomed run's legacy: a committed DetectOverlap checkpoint.
	stageDir, man, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.Stage != StageDetectOverlap {
		t.Fatalf("latest committed checkpoint = %+v, want stage %s", man, StageDetectOverlap)
	}

	// Recovery: a fresh group loads the pinned commit and finishes — the
	// in-test replica of the supervisor's relaunch with -resume <stage dir>.
	rdv2 := startTestRendezvous(t, p)
	outs := make([]*Output, p)
	recErrs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			recErrs[r] = func() error {
				eng, err := Plan(distOptions(rdv2, r, nil))
				if err != nil {
					return err
				}
				arts, err := eng.LoadCheckpoint(context.Background(), reads, stageDir)
				if err != nil {
					return err
				}
				defer arts.Close()
				fin, err := eng.ResumeFrom(context.Background(), arts, StageExtractContig)
				if err != nil {
					return err
				}
				outs[r], err = fin.Output()
				return err
			}()
		}(r)
	}
	wg.Wait()
	for r, err := range recErrs {
		if err != nil {
			t.Fatalf("recovery rank %d: %v", r, err)
		}
	}
	assertEveryProcess(t, ref, outs, nil, "recovered run vs undisturbed")
}
