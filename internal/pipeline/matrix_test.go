package pipeline

// The equivalence matrix: the one place the standing invariant is asserted —
// every execution mode yields bit-identical contigs and equal work and
// traffic counters. A row is data: an options delta (P, threads, backend,
// transport, blocking, packed sequence exchange) plus an execution kind
// (monolithic, staged@S, checkpoint@S, traced, two-host). Each distinct row
// is assembled at most once per test binary, and assertSameRun holds every
// row to its reference. The suites below are thin t.Runs over their rows.

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/readsim"
	"repro/internal/trace"
)

// matrixInput is the matrix's read set: five independent 4 kb genomes at
// depth 12, 163 reads. It assembles into five contigs at every P, so the
// contig phase spreads real work over the ranks (loads [9, 16] at P = 4).
var matrixInput = sync.OnceValues(func() (genomes, reads [][]byte) {
	for i := int64(0); i < 5; i++ {
		g := readsim.Genome(readsim.GenomeConfig{Length: 4000, Seed: 900 + i})
		genomes = append(genomes, g)
		reads = append(reads, readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 12, MeanLen: 1500, Seed: 950 + i}))...)
	}
	return genomes, reads
})

// execKind is how a row's assembly is executed.
type execKind int

const (
	monolithic   execKind = iota // Run
	staged                       // RunUntil(split), then ResumeFrom on the same engine
	checkpointed                 // RunUntil(split) to disk, then a fresh engine loads and finishes
	traced                       // Run with a trace and a metric set attached
	twoHost                      // one engine per rank, on two loopback interfaces
)

// row is one cell of the matrix. Zero fields keep the reference
// configuration: xdrop, one thread, inproc, nonblocking, raw sequence
// exchange, monolithic.
type row struct {
	p         int
	threads   int
	backend   string
	transport string
	blocking  bool
	packed    bool
	exec      execKind
	split     string // staged and checkpointed: the stage RunUntil stops after
}

// reference is the row whose contigs every other row must reproduce.
var reference = row{p: 4}

func (r row) options() Options {
	opt := DefaultOptions(r.p)
	opt.K, opt.XDrop = 21, 25
	opt.Threads = max(r.threads, 1)
	opt.AlignBackend = r.backend
	opt.Transport = r.transport
	opt.Async = !r.blocking
	opt.PackSeqComm = r.packed
	return opt
}

func (r row) String() string {
	s := fmt.Sprintf("P=%d %s T=%d %s", r.p, cmp.Or(r.backend, BackendXDrop), max(r.threads, 1), cmp.Or(r.transport, TransportInproc))
	if r.blocking {
		s += " blocking"
	} else {
		s += " async"
	}
	if r.packed {
		s += " packed"
	}
	return s + " " + [...]string{"monolithic", "staged@", "checkpoint@", "traced", "two-host"}[r.exec] + r.split
}

// parent returns the run r is held to and the stage rows allowed to differ
// from it (none: the totals must match too). Plumbing — execution kind,
// threads, transport, blocking — moves no counter, so such a row must
// reproduce its (P, backend, packed) reference exactly. The packed exchange
// moves only the sequence exchange's traffic. P and the backend move
// alignment work and traffic everywhere; only the contigs must stay.
func (r row) parent() (row, []string) {
	switch ref := (row{p: r.p, backend: r.backend, packed: r.packed}); {
	case r != ref:
		return ref, nil
	case r.packed:
		return row{p: r.p, backend: r.backend}, []string{StageExtractContig, core.SubStageSequenceComm}
	}
	return reference, RowNames()
}

// runs memoises the matrix. Rows are computed lazily, so any one suite still
// runs on its own; only the Output is kept, every world is closed.
var runs = map[row]*Output{}

// check assembles r, at most once per test binary, and holds it to its
// parent, and that to its own, up to the reference.
func check(t *testing.T, r row) *Output {
	t.Helper()
	if r.backend == BackendXDrop {
		r.backend = ""
	}
	if r.transport == TransportInproc {
		r.transport = ""
	}
	got, ok := runs[r]
	if !ok {
		got = r.run(t)
		runs[r] = got
	}
	assertInvariants(t, r, got)
	if r == reference {
		assertTrueContigs(t, got)
		return got
	}
	parent, differ := r.parent()
	ref := check(t, parent)
	assertSameRun(t, ref, got, fmt.Sprintf("%v vs %v", r, parent), differ...)
	if r.packed && !parent.packed {
		raw, packed := ref.Stats.Timers.Get(core.SubStageSequenceComm).SumBytes, got.Stats.Timers.Get(core.SubStageSequenceComm).SumBytes
		if packed*3 > raw {
			t.Fatalf("%v: packed sequence exchange sent %d bytes, more than a third of the raw %d", r, packed, raw)
		}
	}
	return got
}

// checkRows runs each row as a subtest of t. Under -short only the first
// short rows run, and a suite with none is skipped.
func checkRows(t *testing.T, short int, rows ...row) {
	t.Helper()
	if testing.Short() {
		if short == 0 {
			t.Skip("full-pipeline rows in -short mode")
		}
		rows = rows[:short]
	}
	for _, r := range rows {
		t.Run(r.String(), func(t *testing.T) { check(t, r) })
	}
}

// as re-executes rows as kind, stopping after each split in turn.
func as(kind execKind, splits []string, rows ...row) []row {
	var out []row
	for _, split := range splits {
		for _, r := range rows {
			r.exec, r.split = kind, split
			out = append(out, r)
		}
	}
	return out
}

// blockingToo follows every row with its blocking twin.
func blockingToo(rows ...row) []row {
	var out []row
	for _, r := range rows {
		b := r
		b.blocking = true
		out = append(out, r, b)
	}
	return out
}

// run assembles r under its execution kind and that kind's own checks.
func (r row) run(t *testing.T) *Output {
	t.Helper()
	_, reads := matrixInput()
	opt := r.options()
	switch r.exec {
	case staged:
		return stagedRun(t, reads, opt, r.split)
	case checkpointed:
		return checkpointedRun(t, reads, opt, r.split)
	case traced:
		return tracedRun(t, reads, opt)
	case twoHost:
		parent, _ := r.parent()
		return twoHostRun(t, reads, opt, check(t, parent))
	}
	out, err := Run(reads, opt)
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	return out
}

// contigChecksum identifies a run's contig set bit-exactly.
func contigChecksum(out *Output) string {
	seqs := make([][]byte, len(out.Contigs))
	for i, c := range out.Contigs {
		seqs[i] = c.Seq
	}
	return obs.ChecksumSeqs(seqs)
}

// assertRowsSumToTotals fails unless the run's traffic totals are exactly
// the sums of its top-level stage rows (names without ':').
func assertRowsSumToTotals(t *testing.T, out *Output, label string) {
	t.Helper()
	var sumBytes, sumMsgs int64
	for _, name := range out.Stats.Timers.Names() {
		if !strings.Contains(name, ":") {
			sumBytes += out.Stats.Timers.Get(name).SumBytes
			sumMsgs += out.Stats.Timers.Get(name).SumMsgs
		}
	}
	if sumBytes != out.Stats.CommBytes || sumMsgs != out.Stats.CommMsgs {
		t.Fatalf("%s: top-level rows sum to %d B / %d msgs, totals are %d B / %d msgs",
			label, sumBytes, sumMsgs, out.Stats.CommBytes, out.Stats.CommMsgs)
	}
}

// assertSameRun is the package's one cross-run comparison. got must carry
// ref's contigs byte for byte, each run's totals must be the sums of its
// top-level rows, and on every RowNames row not named in differ the runs must
// agree on SumBytes, SumMsgs, MaxBytes, MaxMsgs and SumWork. With differ
// empty the totals must match too.
func assertSameRun(t *testing.T, ref, got *Output, label string, differ ...string) {
	t.Helper()
	if a, b := contigChecksum(ref), contigChecksum(got); a != b {
		t.Fatalf("%s: contigs differ: %d (%s) vs reference %d (%s)", label, len(got.Contigs), b, len(ref.Contigs), a)
	}
	assertRowsSumToTotals(t, ref, label+" (reference)")
	assertRowsSumToTotals(t, got, label)
	if len(differ) == 0 && (ref.Stats.CommBytes != got.Stats.CommBytes || ref.Stats.CommMsgs != got.Stats.CommMsgs) {
		t.Fatalf("%s: traffic %d B / %d msgs, reference %d B / %d msgs",
			label, got.Stats.CommBytes, got.Stats.CommMsgs, ref.Stats.CommBytes, ref.Stats.CommMsgs)
	}
	counters := func(e trace.SummaryEntry) [5]int64 {
		return [5]int64{e.SumBytes, e.SumMsgs, e.MaxBytes, e.MaxMsgs, e.SumWork}
	}
	for _, name := range RowNames() {
		if slices.Contains(differ, name) {
			continue
		}
		if a, b := counters(ref.Stats.Timers.Get(name)), counters(got.Stats.Timers.Get(name)); a != b {
			t.Fatalf("%s: row %s bytes/msgs/max bytes/max msgs/work %v, reference %v", label, name, b, a)
		}
	}
}

// assertInvariants holds one run to what needs no second run: Stats.Threads
// echoes the requested workers, RowNames lists every recorded row and the
// manifest lists them in its order, every stage and alignment phase did work,
// some candidates were skipped, and on every row the overlapped traffic is a
// non-negative part of the total (exposed is the rest), zero when blocking,
// and somewhere nonzero for a nonblocking run at P > 1.
func assertInvariants(t *testing.T, r row, out *Output) {
	t.Helper()
	if want := max(r.threads, 1); out.Stats.Threads != want {
		t.Fatalf("%v: Stats.Threads = %d, want %d", r, out.Stats.Threads, want)
	}
	recorded := out.Stats.Timers.Names()
	listed := slices.DeleteFunc(RowNames(), func(name string) bool { return !slices.Contains(recorded, name) })
	if len(listed) != len(recorded) {
		t.Fatalf("%v: recorded rows %v, RowNames lists %v of them", r, recorded, listed)
	}
	var manifest []string
	for _, st := range out.Manifest(r.options()).Stages {
		manifest = append(manifest, st.Name)
	}
	if !slices.Equal(manifest, listed) {
		t.Fatalf("%v: manifest rows %v, want %v", r, manifest, listed)
	}
	for _, name := range slices.Concat(MainStages, AlignmentPhases) {
		if out.Stats.Timers.Get(name).SumWork <= 0 {
			t.Fatalf("%v: row %s has no work", r, name)
		}
	}
	if a, c := out.Stats.AlignedPairs, out.Stats.CandidatePairs; a >= c {
		t.Fatalf("%v: aligned %d of %d candidates, want some skipped", r, a, c)
	}
	var sawOverlap bool
	for _, name := range out.Stats.Timers.Names() {
		e := out.Stats.Timers.Get(name)
		if e.SumOverlapBytes < 0 || e.SumExposedBytes() < 0 || e.MaxOverlapBytes > e.MaxBytes {
			t.Fatalf("%v: row %s overlap %d (max %d) of %d bytes (max %d)", r, name, e.SumOverlapBytes, e.MaxOverlapBytes, e.SumBytes, e.MaxBytes)
		}
		if r.blocking && e.SumOverlapBytes != 0 {
			t.Fatalf("%v: blocking run reports %d overlap bytes in %s", r, e.SumOverlapBytes, name)
		}
		sawOverlap = sawOverlap || e.SumOverlapBytes > 0
	}
	if !r.blocking && r.p > 1 && !sawOverlap {
		t.Fatalf("%v: nonblocking run recorded no overlapped traffic", r)
	}
}

// assertTrueContigs checks the reference against its source, not only the
// modes against each other: at least five contigs, each an exact substring,
// on either strand, of one source genome.
func assertTrueContigs(t *testing.T, out *Output) {
	t.Helper()
	genomes, _ := matrixInput()
	if len(out.Contigs) < len(genomes) {
		t.Fatalf("reference assembled %d contigs from %d genomes", len(out.Contigs), len(genomes))
	}
	for i, c := range out.Contigs {
		if !slices.ContainsFunc(genomes, func(g []byte) bool {
			return bytes.Contains(g, c.Seq) || bytes.Contains(dna.RevComp(g), c.Seq)
		}) {
			t.Fatalf("reference contig %d (%d bases) is no genome's substring", i, len(c.Seq))
		}
	}
}

// stagedRun splits one assembly into RunUntil(split) + ResumeFrom(rest): the
// partial artifacts stop at the split and refuse to yield an Output.
func stagedRun(t *testing.T, reads [][]byte, opt Options, split string) *Output {
	t.Helper()
	eng, err := Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunUntil(context.Background(), reads, split)
	if err != nil {
		t.Fatal(err)
	}
	defer arts.Close()
	if got := arts.Stage(); got != split {
		t.Fatalf("RunUntil(%s) stopped at %q", split, got)
	}
	if _, err := arts.Output(); err == nil {
		t.Fatalf("partial artifacts (at %s) yielded an Output", split)
	}
	rest, err := eng.ResumeFrom(context.Background(), arts, StageExtractContig)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rest.Output()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkpointedRun runs reads to `until` with checkpointing on, then finishes
// the assembly from the durable checkpoint on a fresh engine and world — the
// crash-and-restart path without the crash.
func checkpointedRun(t *testing.T, reads [][]byte, opt Options, until string) *Output {
	t.Helper()
	dir := t.TempDir()
	ckOpt := opt
	ckOpt.CheckpointDir = dir
	eng, err := Plan(ckOpt)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunUntil(context.Background(), reads, until)
	if err != nil {
		t.Fatalf("run until %s: %v", until, err)
	}
	arts.Close()

	fresh, err := Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := fresh.LoadCheckpoint(context.Background(), reads, dir)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	defer loaded.Close()
	if got := loaded.Stage(); got != until {
		t.Fatalf("loaded checkpoint resumes after %q, want %q", got, until)
	}
	fin, err := fresh.ResumeFrom(context.Background(), loaded, StageExtractContig)
	if err != nil {
		t.Fatalf("resume from checkpoint: %v", err)
	}
	out, err := fin.Output()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tracedRun assembles with a trace and a metric set attached and requires
// them to have observed the run: on every rank a stage span for every row of
// the run's summary (Algorithm 2's steps and the alignment phases included),
// overlap.build_a inside DetectOverlap and before the first summa.round, the
// expected metrics, an mpi.msg_bytes histogram equal to the traffic counters,
// and a manifest that verifies clean and carries the run's checksum.
func tracedRun(t *testing.T, reads [][]byte, opt Options) *Output {
	t.Helper()
	tr, ms := obs.NewTrace(opt.P), obs.NewMetricSet(opt.P)
	opt.Trace, opt.Metrics = tr, ms
	out, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Stats.Timers.Names()
	if len(rows) != len(RowNames()) {
		t.Fatalf("summary has rows %v, want %v", rows, RowNames())
	}
	for r := 0; r < opt.P; r++ {
		spans := map[string]int{}
		var builds int
		var detect, build, firstRound *obs.Event
		for _, e := range tr.Rank(r).Events() {
			switch {
			case e.Cat == "stage":
				spans[e.Name]++
				if e.Name == StageDetectOverlap {
					detect = &e
				}
			case e.Name == "overlap.build_a":
				build = &e
				builds++
			case e.Name == "summa.round" && firstRound == nil && build != nil:
				firstRound = &e
			}
		}
		for _, row := range rows {
			if spans[row] == 0 {
				t.Fatalf("rank %d recorded no stage span for row %s (stage spans: %v)", r, row, spans)
			}
		}
		if len(spans) != len(rows) {
			t.Fatalf("rank %d recorded stage spans %v, the summary has rows %v", r, spans, rows)
		}
		if builds != 1 || detect == nil || firstRound == nil {
			t.Fatalf("rank %d: %d overlap.build_a spans (DetectOverlap span %v, later summa.round %v)", r, builds, detect != nil, firstRound != nil)
		}
		if build.Ts < detect.Ts || build.Ts+build.Dur > detect.Ts+detect.Dur || build.Ts+build.Dur > firstRound.Ts {
			t.Fatalf("rank %d: overlap.build_a [%d,+%d] not inside DetectOverlap [%d,+%d] before summa.round at %d",
				r, build.Ts, build.Dur, detect.Ts, detect.Dur, firstRound.Ts)
		}
	}
	byName := map[string]obs.Metric{}
	for _, m := range obs.Merge(ms.Snapshots()...) {
		byName[m.Name] = m
	}
	// Every nonzero of A is counted once; its exchange is part of — and at
	// P=1 none of — DetectOverlap's traffic.
	detectBytes := out.Stats.Timers.Get(StageDetectOverlap).SumBytes
	if nnz, xb := byName["overlap.a_nnz"].Value, byName["overlap.a_exchange_bytes"].Value; nnz == 0 ||
		xb > detectBytes || (xb == 0) != (opt.P == 1) {
		t.Fatalf("overlap.a_nnz=%d overlap.a_exchange_bytes=%d (DetectOverlap sent %d bytes)", nnz, xb, detectBytes)
	}
	for _, name := range []string{"align.cells", "align.pairs", "kmer.occurrences", "kmer.reliable", "pipeline.reads_local"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("metric %s missing from the merged snapshot", name)
		}
	}
	// The msg-size histogram and the traffic counters observe the same sends.
	if h, ok := byName["mpi.msg_bytes"]; opt.P > 1 && (!ok || h.Count != out.Stats.CommMsgs || h.Sum != out.Stats.CommBytes) {
		t.Fatalf("mpi.msg_bytes count/sum %d/%d (present %v), traffic counters %d/%d",
			h.Count, h.Sum, ok, out.Stats.CommMsgs, out.Stats.CommBytes)
	}
	man := out.Manifest(opt)
	if bad := man.Verify(); len(bad) > 0 {
		t.Fatalf("manifest invariants violated: %v", bad)
	}
	if man.Contigs.Checksum != contigChecksum(out) {
		t.Fatal("manifest checksum differs from the run's contigs")
	}
	return out
}

// twoHostRun splits the assembly over two process groups — the lower half of
// the ranks on 127.0.0.1, the upper on 127.0.0.2, each rank its own engine
// and endpoint joined through a rendezvous, sharing nothing but sockets — and
// holds every process to ref. No goroutine may outlive the job.
func twoHostRun(t *testing.T, reads [][]byte, opt Options, ref *Output) *Output {
	t.Helper()
	if ln, err := net.Listen("tcp", "127.0.0.2:0"); err != nil {
		t.Skipf("second loopback interface unavailable: %v", err)
	} else {
		ln.Close()
	}
	goroutines := runtime.NumGoroutine()
	rdv := startTestRendezvous(t, opt.P)
	outs := make([]*Output, opt.P)
	lastEnd := make([]*trace.Summary, opt.P)
	errs := make([]error, opt.P)
	var wg sync.WaitGroup
	for r := range opt.P {
		wg.Add(1)
		go func() {
			defer wg.Done()
			host := []string{"127.0.0.1", "127.0.0.2"}[2*r/opt.P]
			ob := Observer{StageEnd: func(_ string, sum *trace.Summary, _ time.Duration) { lastEnd[r] = sum }}
			eng, err := Plan(joinOptions(opt, rdv, host, r, nil), ob)
			if err != nil {
				errs[r] = err
				return
			}
			outs[r], errs[r] = eng.Run(context.Background(), reads)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	assertEveryProcess(t, ref, outs, lastEnd, "two-host")
	waitGoroutines(t, goroutines)
	return outs[0]
}

// assertEveryProcess holds each process of a distributed run to ref: rank 0
// alone carries the contigs, and every process reports the whole job — in
// its Stats.Timers and, when lastEnd is given, in the summary its last
// StageEnd saw.
func assertEveryProcess(t *testing.T, ref *Output, outs []*Output, lastEnd []*trace.Summary, label string) {
	t.Helper()
	for r, out := range outs {
		if r > 0 && len(out.Contigs) != 0 {
			t.Fatalf("%s: rank %d holds %d contigs; gathering should leave them at rank 0 only", label, r, len(out.Contigs))
		}
		view := *out
		view.Contigs = outs[0].Contigs
		assertSameRun(t, ref, &view, fmt.Sprintf("%s rank %d", label, r))
		if lastEnd != nil {
			view.Stats.Timers = lastEnd[r]
			assertSameRun(t, ref, &view, fmt.Sprintf("%s rank %d last StageEnd", label, r))
		}
	}
}

// TestAsyncSyncEquivalence: blocking and nonblocking communication agree
// across P, threads and backends.
func TestAsyncSyncEquivalence(t *testing.T) {
	checkRows(t, 0, blockingToo(
		row{p: 1}, row{p: 4}, row{p: 4, threads: 2}, row{p: 9},
		row{p: 4, backend: BackendWFA}, row{p: 4, backend: BackendWFA, threads: 2})...)
}

// TestAsyncPackedSeqComm drives the packed sequence exchange in both modes.
func TestAsyncPackedSeqComm(t *testing.T) {
	checkRows(t, 0, blockingToo(row{p: 4, packed: true})...)
}

// TestPackSeqCommEquivalentAndSmaller: the §7 packed sequence exchange keeps
// the contigs and every row but the exchange's, and sends at most a third of
// the raw bytes.
func TestPackSeqCommEquivalentAndSmaller(t *testing.T) {
	checkRows(t, 0, row{p: 4, packed: true})
}

// TestTransportEquivalence: the loopback socket mesh in both modes.
func TestTransportEquivalence(t *testing.T) {
	checkRows(t, 0, blockingToo(row{p: 4}, row{p: 4, transport: TransportTCP})...)
}

// TestTCPTransportSmoke keeps a socket-backed assembly in the -short suite.
func TestTCPTransportSmoke(t *testing.T) {
	checkRows(t, 1, row{p: 4, transport: TransportTCP})
}

// TestThreadsDeterminism: eight intra-rank workers reproduce one, on both
// backends, aligned pairs and per-phase work included — the pairs each phase
// aligns are chosen serially, before the pool sees them.
func TestThreadsDeterminism(t *testing.T) {
	for _, backend := range AlignBackends() {
		t.Run(backend, func(t *testing.T) {
			checkRows(t, 2, row{p: 4, backend: backend}, row{p: 4, backend: backend, threads: 8})
		})
	}
}

// TestStagedMatchesMonolithic: splitting a run at any stage boundary
// reproduces the monolithic run.
func TestStagedMatchesMonolithic(t *testing.T) {
	checkRows(t, 2, as(staged,
		[]string{StageAlignment, StageFastaReader, StageCountKmer, StageDetectOverlap, StageTrReduction},
		row{p: 1, blocking: true}, row{p: 4}, row{p: 4, backend: BackendWFA, threads: 2},
		row{p: 9, blocking: true}, row{p: 4, backend: BackendWFA, blocking: true}, row{p: 4, threads: 2})...)
}

// TestTracingEquivalence: observability is read-only, and it observed.
func TestTracingEquivalence(t *testing.T) {
	checkRows(t, 2, as(traced, []string{""},
		row{p: 1, blocking: true}, row{p: 4}, row{p: 4, backend: BackendWFA, threads: 2}, row{p: 9, blocking: true})...)
}

// TestCheckpointRoundTripEquivalence: the durable resume path, over P,
// transports and modes.
func TestCheckpointRoundTripEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full checkpoint matrix in -short mode (see TestCheckpointSmoke)")
	}
	for _, p := range []int{1, 4} {
		for _, transport := range Transports() {
			for _, async := range []bool{true, false} {
				t.Run(fmt.Sprintf("P=%d %s async=%t", p, transport, async), func(t *testing.T) {
					check(t, row{p: p, transport: transport, blocking: !async, exec: checkpointed, split: StageAlignment})
				})
			}
		}
	}
}

// TestCheckpointEveryResumePoint: finishing from every checkpointable stage
// boundary reproduces the reference.
func TestCheckpointEveryResumePoint(t *testing.T) {
	if testing.Short() {
		t.Skip("per-stage resume matrix in -short mode (see TestCheckpointSmoke)")
	}
	for _, stage := range StageNames()[:len(StageNames())-1] {
		t.Run(stage, func(t *testing.T) { check(t, row{p: 4, exec: checkpointed, split: stage}) })
	}
}

// TestCheckpointSmoke is the -short member of the checkpoint rows.
func TestCheckpointSmoke(t *testing.T) {
	checkRows(t, 1, row{p: 4, exec: checkpointed, split: StageCountKmer})
}

// TestDistributedTwoHostEquivalence: a P = 4 job over two simulated hosts.
func TestDistributedTwoHostEquivalence(t *testing.T) {
	checkRows(t, 1, row{p: 4, exec: twoHost})
}

// TestRunContigsIndependentOfP: the same contigs at every grid size.
func TestRunContigsIndependentOfP(t *testing.T) {
	checkRows(t, 0, row{p: 1}, row{p: 4}, row{p: 9}, row{p: 16})
}

// TestLargeGridSmoke: at P = 64 (8×8 grid) most ranks hold fewer reads than
// a contig needs — the n < P idle-rank path of §4.3.
func TestLargeGridSmoke(t *testing.T) {
	checkRows(t, 0, row{p: 64})
}

// TestLoadBalanceReported: LPT gives every rank part of the contig phase
// when there are at least as many contigs as ranks.
func TestLoadBalanceReported(t *testing.T) {
	out := check(t, reference)
	st := out.Stats
	if st.NumContigs < int64(st.P) || st.MinLoad <= 0 || st.MaxLoad < st.MinLoad {
		t.Fatalf("P=%d: %d contigs, loads [%d, %d]; want at least P contigs and every rank loaded", st.P, st.NumContigs, st.MinLoad, st.MaxLoad)
	}
}

// TestAssemblyUnderMessageLimit: with mpi.MaxMessageBytes at 1 KiB every
// exchange and collective of a whole assembly chunks, and the run gives the
// reference's contigs at P 4 and 9 on both transports.
func TestAssemblyUnderMessageLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline rows in -short mode")
	}
	ref := check(t, reference)
	_, reads := matrixInput()
	defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
	for _, p := range []int{4, 9} {
		for _, transport := range Transports() {
			r := row{p: p, transport: transport}
			t.Run(r.String(), func(t *testing.T) {
				mpi.MaxMessageBytes = 1024
				out, err := Run(reads, r.options())
				if err != nil {
					t.Fatal(err)
				}
				if a, b := contigChecksum(ref), contigChecksum(out); a != b {
					t.Fatalf("contigs under the limit %s, reference %s", b, a)
				}
			})
		}
	}
}
