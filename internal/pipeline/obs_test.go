package pipeline

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestObserverOrderingUnderCancellation extends TestCancellationMidAlignment
// to the observer contract on the failure path: a run cancelled mid-stage
// sees every earlier stage's StageStart and StageEnd in stage order, the
// cancelled stage gets its StageStart but never a StageEnd, no callback fires
// after RunUntil returns, and the rank goroutines still unwind completely.
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

	// The cancelled stage's StageStart is the last callback; every stage
	// before it started and ended, in order.
	var want []string
	for _, st := range stages {
		want = append(want, "start:"+st.name)
		if st.name == StageAlignment {
			break
		}
		want = append(want, "end:"+st.name)
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("observer callbacks\n got %v\nwant %v", log, want)
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

// untimed drops a snapshot's gauges, whose values depend on the schedule:
// what is left is the same on every run of one job.
func untimed(snap []obs.Metric) []obs.Metric {
	return slices.DeleteFunc(slices.Clone(snap), func(m obs.Metric) bool { return m.Kind == obs.KindGauge })
}

// TestPlainRunRecordsEveryRank: the run record is the engine's. A plain Run,
// with no trace and nothing set up for metrics, returns one snapshot per
// rank, equal but for gauges to the same run's with a trace attached, and a
// manifest that verifies clean.
func TestPlainRunRecordsEveryRank(t *testing.T) {
	reads := testReads(8000, 631)
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	plain, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	traced := opt
	traced.Trace = obs.NewTrace(opt.P)
	ref, err := Run(reads, traced)
	if err != nil {
		t.Fatal(err)
	}
	man, want := plain.Manifest(), ref.Manifest()
	if bad := man.Verify(); len(bad) != 0 {
		t.Fatalf("plain run's manifest: %v", bad)
	}
	if len(man.PerRank) != opt.P {
		t.Fatalf("plain run records %d snapshots, want P = %d", len(man.PerRank), opt.P)
	}
	for r := range man.PerRank {
		got := untimed(man.PerRank[r])
		if !slices.ContainsFunc(got, func(m obs.Metric) bool { return m.Name == "align.pairs" }) {
			t.Fatalf("rank %d recorded no align.pairs: %v", r, got)
		}
		if w := untimed(want.PerRank[r]); !reflect.DeepEqual(got, w) {
			t.Errorf("rank %d: plain run records\n%v\ntraced run\n%v", r, got, w)
		}
	}
}

// TestResumedRecordCoversExecutedStages pins what a resumed run's record
// covers (obs.Manifest): its stage rows and comm totals are the whole run's,
// the restored stages included, while its metrics are those of the stages it
// executed. Resumed after DetectOverlap, it records the monolithic run's rows
// and totals and its Alignment-onward counters, no kmer.* or overlap.*
// metric, spmat.spgemm_products short by DetectOverlap's products, and
// mpi.msg_bytes equal to the rows of the stages it executed: FastaReader,
// which the load runs again to rebuild the grid and the read store, and
// those after the checkpoint.
func TestResumedRecordCoversExecutedStages(t *testing.T) {
	reads := testReads(8000, 631)
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	ckOpt := opt
	ckOpt.CheckpointDir = t.TempDir()
	ckOpt.CheckpointEvery = StageDetectOverlap
	mono, err := Run(reads, ckOpt)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.LoadCheckpoint(context.Background(), reads, ckOpt.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	fin, err := eng.ResumeFrom(context.Background(), snap, StageExtractContig)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fin.Output()
	if err != nil {
		t.Fatal(err)
	}
	want, got := mono.Manifest(), out.Manifest()
	if bad := got.Verify(); len(bad) != 0 {
		t.Fatalf("resumed run's manifest: %v", bad)
	}
	if got.Contigs != want.Contigs || got.Comm != want.Comm {
		t.Fatalf("resumed run: contigs %+v, comm %+v; monolithic %+v, %+v", got.Contigs, got.Comm, want.Contigs, want.Comm)
	}
	untimedRows := func(rows []obs.StageStats) []obs.StageStats {
		rows = slices.Clone(rows)
		for i := range rows {
			rows[i].WallNS = 0
		}
		return rows
	}
	if g, w := untimedRows(got.Stages), untimedRows(want.Stages); !reflect.DeepEqual(g, w) {
		t.Fatalf("resumed rows\n%+v\nmonolithic\n%+v", g, w)
	}

	byName := func(ms []obs.Metric) map[string]obs.Metric {
		out := map[string]obs.Metric{}
		for _, m := range ms {
			out[m.Name] = m
		}
		return out
	}
	gm, wm := byName(got.Metrics), byName(want.Metrics)
	for name, m := range gm {
		if strings.HasPrefix(name, "kmer.") || strings.HasPrefix(name, "overlap.") {
			t.Errorf("resumed run records %s, a metric of a restored stage", name)
		}
		if (strings.HasPrefix(name, "align.") || strings.HasPrefix(name, "lacc.")) && !reflect.DeepEqual(m, wm[name]) {
			t.Errorf("%s: resumed %+v, monolithic %+v", name, m, wm[name])
		}
	}
	for name := range wm {
		if _, ok := gm[name]; !ok && (strings.HasPrefix(name, "align.") || strings.HasPrefix(name, "lacc.")) {
			t.Errorf("resumed run lacks %s", name)
		}
	}
	detect := mono.Stats.Timers.Get(StageDetectOverlap).SumWork
	if g, w := gm["spmat.spgemm_products"].Value, wm["spmat.spgemm_products"].Value; detect == 0 || g != w-detect {
		t.Errorf("spmat.spgemm_products: resumed %d, monolithic %d, DetectOverlap's products %d", g, w, detect)
	}
	var bytes, msgs int64
	for _, st := range got.Stages {
		if slices.Contains([]string{StageFastaReader, StageAlignment, StageTrReduction, StageExtractContig}, st.Name) {
			bytes += st.Bytes
			msgs += st.Msgs
		}
	}
	if h := gm["mpi.msg_bytes"]; h.Sum != bytes || h.Count != msgs || bytes == got.Comm.Bytes {
		t.Errorf("mpi.msg_bytes: %d messages, %d bytes; the executed stages' rows %d, %d (the run's %d, %d)",
			h.Count, h.Sum, msgs, bytes, got.Comm.Msgs, got.Comm.Bytes)
	}
}
