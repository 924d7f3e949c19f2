package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestObserverOrderingUnderCancellation extends TestCancellationMidAlignment
// to the observer contract on the failure path: a run cancelled mid-stage
// emits EventRunStart first and EventRunEnd (with the cancellation error)
// last, the cancelled stage gets its StageStart but never a StageEnd, no
// callback of any kind fires after RunUntil returns, and the rank goroutines
// still unwind completely.
func TestObserverOrderingUnderCancellation(t *testing.T) {
	reads := testReads(15000, 611)
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var returned atomic.Bool
	var log []string // callbacks run on the calling goroutine; no mutex needed
	var lateCalls atomic.Int64
	record := func(entry string) {
		if returned.Load() {
			lateCalls.Add(1)
			return
		}
		log = append(log, entry)
	}
	ob := Observer{
		StageStart: func(stage string, _, _ int) {
			record("start:" + stage)
			if stage == StageAlignment {
				cancel()
			}
		},
		StageEnd: func(stage string, _ *trace.Summary, _ time.Duration) {
			record("end:" + stage)
		},
		Event: func(ev EngineEvent) {
			switch ev.Kind {
			case EventRunStart:
				record("run-start")
			case EventRunEnd:
				record(fmt.Sprintf("run-end:%v", ev.Err))
			}
		},
	}
	eng, err := Plan(opt, ob)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunUntil(ctx, reads, StageExtractContig)
	returned.Store(true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if arts != nil {
		t.Fatal("cancelled run returned artifacts")
	}

	if len(log) == 0 || log[0] != "run-start" {
		t.Fatalf("first callback %v, want run-start (log: %v)", log[:1], log)
	}
	last := log[len(log)-1]
	if last != "run-end:"+context.Canceled.Error() {
		t.Fatalf("last callback %q, want run-end with context.Canceled (log: %v)", last, log)
	}
	seen := map[string]bool{}
	for _, e := range log {
		seen[e] = true
	}
	if !seen["start:"+StageAlignment] {
		t.Fatalf("cancelled stage got no StageStart: %v", log)
	}
	if seen["end:"+StageAlignment] {
		t.Fatalf("cancelled stage got a StageEnd: %v", log)
	}
	// Stages before the cancellation point completed normally.
	if !seen["start:"+StageCountKmer] || !seen["end:"+StageCountKmer] {
		t.Fatalf("pre-cancellation stage callbacks missing: %v", log)
	}
	if n := lateCalls.Load(); n != 0 {
		t.Fatalf("%d observer callbacks fired after RunUntil returned", n)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("rank goroutines leaked after cancellation: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTracingEquivalence is the zero-interference gate: a run with tracing
// and metrics attached must produce bit-identical contigs and identical
// byte/message counters to the bare run, across (P, threads, backend,
// sync/async) — observability is read-only. The traced run must actually
// have traced (non-empty lanes, the expected metric families present, the
// msg-size histogram's count/sum equal to the traffic counters) and its
// manifest must satisfy every internal invariant.
func TestTracingEquivalence(t *testing.T) {
	reads := testReads(15000, 613)
	cases := []struct {
		p, threads int
		backend    string
		async      bool
	}{
		{1, 1, BackendXDrop, false},
		{4, 1, BackendXDrop, true},
		{4, 2, BackendWFA, true},
		{9, 1, BackendXDrop, false},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, tc := range cases {
		label := fmt.Sprintf("%s/P=%d/T=%d/async=%v", tc.backend, tc.p, tc.threads, tc.async)
		opt := DefaultOptions(tc.p)
		opt.K = 21
		opt.XDrop = 25
		opt.Threads = tc.threads
		opt.AlignBackend = tc.backend
		opt.Async = tc.async

		bare, err := Run(reads, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		tr := obs.NewTrace(tc.p)
		ms := obs.NewMetricSet(tc.p)
		opt.Trace = tr
		opt.Metrics = ms
		traced, err := Run(reads, opt)
		if err != nil {
			t.Fatalf("%s traced: %v", label, err)
		}

		if len(traced.Contigs) != len(bare.Contigs) {
			t.Fatalf("%s: %d contigs traced vs %d bare", label, len(traced.Contigs), len(bare.Contigs))
		}
		for i := range bare.Contigs {
			if !bytes.Equal(traced.Contigs[i].Seq, bare.Contigs[i].Seq) {
				t.Fatalf("%s: contig %d differs with tracing on", label, i)
			}
		}
		if traced.Stats.CommBytes != bare.Stats.CommBytes || traced.Stats.CommMsgs != bare.Stats.CommMsgs {
			t.Fatalf("%s: traffic differs with tracing on: %d/%d bytes, %d/%d msgs",
				label, traced.Stats.CommBytes, bare.Stats.CommBytes,
				traced.Stats.CommMsgs, bare.Stats.CommMsgs)
		}

		// The trace is real: every rank recorded its six stage spans.
		for r := 0; r < tc.p; r++ {
			var stageSpans int
			for _, e := range tr.Rank(r).Events() {
				if e.Cat == "stage" {
					stageSpans++
				}
			}
			if stageSpans != len(StageNames()) {
				t.Fatalf("%s: rank %d recorded %d stage spans, want %d", label, r, stageSpans, len(StageNames()))
			}
		}
		// Construction of A is its own span, inside DetectOverlap and before
		// the first SUMMA round, so a trace separates building from multiplying.
		for r := 0; r < tc.p; r++ {
			var detect, build, firstRound *obs.Event
			var builds int
			for _, e := range tr.Rank(r).Events() {
				switch {
				case e.Cat == "stage" && e.Name == StageDetectOverlap:
					detect = &e
				case e.Name == "overlap.build_a":
					build = &e
					builds++
				case e.Name == "summa.round" && firstRound == nil && build != nil:
					firstRound = &e
				}
			}
			if builds != 1 || detect == nil || firstRound == nil {
				t.Fatalf("%s: rank %d: %d overlap.build_a spans (DetectOverlap span %v, later summa.round %v)", label, r, builds, detect != nil, firstRound != nil)
			}
			if build.Ts < detect.Ts || build.Ts+build.Dur > detect.Ts+detect.Dur || build.Ts+build.Dur > firstRound.Ts {
				t.Fatalf("%s: rank %d: overlap.build_a [%d,+%d] not inside DetectOverlap [%d,+%d] before summa.round at %d",
					label, r, build.Ts, build.Dur, detect.Ts, detect.Dur, firstRound.Ts)
			}
		}
		merged := ms.Merged()
		byName := map[string]obs.Metric{}
		for _, m := range merged {
			byName[m.Name] = m
		}
		// Every nonzero of A is counted once; its exchange is part of — and at
		// P=1 none of — DetectOverlap's traffic.
		detectBytes := traced.Stats.Timers.Get(StageDetectOverlap).SumBytes
		if nnz, xb := byName["overlap.a_nnz"].Value, byName["overlap.a_exchange_bytes"].Value; nnz == 0 ||
			xb > detectBytes || (xb == 0) != (tc.p == 1) {
			t.Fatalf("%s: overlap.a_nnz=%d overlap.a_exchange_bytes=%d (DetectOverlap sent %d bytes)", label, nnz, xb, detectBytes)
		}
		for _, name := range []string{"align.cells", "align.pairs", "kmer.occurrences", "kmer.reliable", "pipeline.reads_local"} {
			if _, ok := byName[name]; !ok {
				t.Fatalf("%s: metric %s missing from merged snapshot (have %d metrics)", label, name, len(merged))
			}
		}
		// The mpi msg-size histogram and the traffic counters are two
		// observers of the same sends; they must agree exactly.
		if tc.p > 1 {
			h, ok := byName["mpi.msg_bytes"]
			if !ok {
				t.Fatalf("%s: mpi.msg_bytes missing", label)
			}
			if h.Count != traced.Stats.CommMsgs || h.Sum != traced.Stats.CommBytes {
				t.Fatalf("%s: msg histogram count/sum %d/%d vs traffic counters %d/%d",
					label, h.Count, h.Sum, traced.Stats.CommMsgs, traced.Stats.CommBytes)
			}
		}

		man := traced.Manifest(opt)
		if bad := man.Verify(); len(bad) > 0 {
			t.Fatalf("%s: manifest invariants violated: %v", label, bad)
		}
		if man.Contigs.Checksum != bareChecksum(bare) {
			t.Fatalf("%s: manifest checksum differs from the bare run's contigs", label)
		}
	}
}

func bareChecksum(out *Output) string {
	seqs := make([][]byte, len(out.Contigs))
	for i, c := range out.Contigs {
		seqs[i] = c.Seq
	}
	return obs.ChecksumSeqs(seqs)
}
