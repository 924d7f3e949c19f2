package pipeline

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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
