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
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/mpi/transport/tcp"
	"repro/internal/obs"
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
//   - the world keeps the cause, attributed to the dead rank;
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
		worldErr  error // the poisoned world's cause
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
				worldErr := arts.World.Err()
				if worldErr == nil {
					return errors.New("world not poisoned after rank failure")
				}
				_, deadErr := eng.ResumeFrom(context.Background(), arts, StageExtractContig)
				if deadErr == nil {
					return errors.New("poisoned artifacts accepted a resume")
				}
				results[r] = result{resumeErr: resumeErr, worldErr: worldErr, deadErr: deadErr}
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
		if !errors.As(results[r].worldErr, &rf) || rf.Rank != 2 {
			t.Errorf("rank %d: world cause does not name rank 2: %v", r, results[r].worldErr)
		}
		if !strings.Contains(results[r].deadErr.Error(), "dead") {
			t.Errorf("rank %d: poisoned-resume error does not say the artifacts are dead: %v", r, results[r].deadErr)
		}
	}
	if !strings.Contains(results[2].resumeErr.Error(), "injected fault") {
		t.Errorf("rank 2's own error lost the injected cause: %v", results[2].resumeErr)
	}
	waitGoroutines(t, goroutines)
}

// TestDistributedMetricsCoverEveryRank runs a 4-process distributed job with
// a metric set on every process and requires each process's merged counters
// to equal an in-process run's, both after Alignment and after the full run:
// every rank's snapshot reaches every process with its stage rows, after
// every stage.
func TestDistributedMetricsCoverEveryRank(t *testing.T) {
	reads := testReads(8000, 631)
	const p = 4
	base := DefaultOptions(p)
	base.K = 21
	base.XDrop = 25

	type view map[string][2]int64 // counter value, or histogram count and sum
	counters := func(ms *obs.MetricSet) view {
		v := view{}
		for _, m := range obs.Merge(ms.Snapshots()...) {
			switch m.Name {
			case "align.pairs", "align.pairs_aligned", "kmer.occurrences", "spmat.spgemm_products":
				v[m.Name] = [2]int64{m.Value}
			case "mpi.msg_bytes":
				v[m.Name] = [2]int64{m.Count, m.Sum}
			}
		}
		return v
	}
	// run takes a process (or the whole in-process world) through Alignment
	// and then to the end, returning its merged counters after each.
	run := func(opt Options) ([2]view, error) {
		ms := obs.NewMetricSet(p)
		opt.Metrics = ms
		eng, err := Plan(opt)
		if err != nil {
			return [2]view{}, err
		}
		arts, err := eng.RunUntil(context.Background(), reads, StageAlignment)
		if err != nil {
			return [2]view{}, err
		}
		defer arts.Close()
		atAlignment := counters(ms)
		if _, err := eng.ResumeFrom(context.Background(), arts, StageExtractContig); err != nil {
			return [2]view{}, err
		}
		return [2]view{atAlignment, counters(ms)}, nil
	}

	want, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(want[0]) != 5 {
		t.Fatalf("in-process run reports %v, want the five checked metrics", want[0])
	}
	rdv := startTestRendezvous(t, p)
	got := make([][2]view, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r], errs[r] = run(joinOptions(base, rdv, "127.0.0.1", r, nil))
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("process %d: %v", r, errs[r])
		}
		for i, stage := range []string{StageAlignment, StageExtractContig} {
			if !reflect.DeepEqual(got[r][i], want[i]) {
				t.Errorf("process %d after %s: merged counters %v, in-process run %v", r, stage, got[r][i], want[i])
			}
		}
	}
}

// TestDistributedReportsUnderMessageLimit: with mpi.MaxMessageBytes at 1 KiB
// a 4-process job whose processes keep metrics assembles the in-process
// run's contigs. Each stage's report all-gather — stage rows and a metric
// snapshot, far over 1 KiB — is chunked like every other collective part.
func TestDistributedReportsUnderMessageLimit(t *testing.T) {
	reads := testReads(8000, 631)
	const p = 4
	base := DefaultOptions(p)
	base.K = 21
	base.XDrop = 25
	ref, err := Run(reads, base)
	if err != nil {
		t.Fatal(err)
	}
	defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
	mpi.MaxMessageBytes = 1024
	rdv := startTestRendezvous(t, p)
	outs := make([]*Output, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opt := joinOptions(base, rdv, "127.0.0.1", r, nil)
			opt.Metrics = obs.NewMetricSet(p)
			outs[r], errs[r] = Run(reads, opt)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", r, err)
		}
	}
	if a, b := contigChecksum(ref), contigChecksum(outs[0]); a != b {
		t.Fatalf("contigs under the limit %s, in-process run %s", b, a)
	}
}

// TestDistributedRefusesMixedJobs: four processes joined into one world are
// one job only if every rank runs the same options on the same reads. When
// rank 3 alone differs — in K, or in one read — every process must fail
// before the first stage, naming rank 3 and the part that differs, and the
// world must be closed behind it.
func TestDistributedRefusesMixedJobs(t *testing.T) {
	reads := testReads(6000, 17)
	const p = 4
	base := DefaultOptions(p)
	for _, tc := range []struct {
		name   string
		change func(opt *Options, reads [][]byte) [][]byte
		want   string
	}{
		{"k", func(opt *Options, reads [][]byte) [][]byte { opt.K = 17; return reads }, "rank 3 does not run rank 0's job: its options fingerprint"},
		{"reads", func(_ *Options, reads [][]byte) [][]byte {
			reads = slices.Clone(reads)
			reads[5] = append([]byte("A"), reads[5]...)
			return reads
		}, "rank 3 does not run rank 0's job: its reads checksum"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			rdv := startTestRendezvous(t, p)
			errs := make([]error, p)
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					opt, mine := joinOptions(base, rdv, "127.0.0.1", r, nil), reads
					if r == 3 {
						mine = tc.change(&opt, reads)
					}
					_, errs[r] = Run(mine, opt)
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("process %d: %v, want an error containing %q", r, err, tc.want)
				}
			}
			waitGoroutines(t, before)
		})
	}
}
