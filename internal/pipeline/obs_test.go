package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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
