package trace

import (
	"sync"
	"testing"
)

// TestTimersConcurrentReporting exercises the thread-safety contract the
// intra-rank worker pools rely on: many goroutines timing intervals,
// reporting work and reading one rank's Timers (run under -race in CI).
func TestTimersConcurrentReporting(t *testing.T) {
	tm := New()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tm.AddWork("Alignment", 2)
				tm.Stage("Alignment", nil, func() {})
				_ = tm.Entry("Alignment")
				_ = tm.Records()
			}
		}()
	}
	wg.Wait()
	e := tm.Entry("Alignment")
	if e.Work != workers*per*2 {
		t.Fatalf("work %d, want %d", e.Work, workers*per*2)
	}
	if e.Bytes != 0 || e.Msgs != 0 {
		t.Fatalf("comm %d/%d without a communicator", e.Bytes, e.Msgs)
	}
	if rows := tm.Records(); len(rows) != 1 {
		t.Fatalf("rows %v, want one", rows)
	}
}

// TestTimersConcurrentMerge nests sub-stage rows inside a stage row of the
// same Timers while another goroutine reports — the ExtractContig/CG:*
// pattern with workers active.
func TestTimersConcurrentMerge(t *testing.T) {
	tm := New()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			tm.AddWork("Alignment", 1)
		}
	}()
	go func() {
		defer wg.Done()
		tm.Stage("ExtractContig", nil, func() {
			tm.Stage("CG:LocalAssembly", nil, func() { tm.AddWork("CG:LocalAssembly", 7) })
		})
	}()
	wg.Wait()
	if got := tm.Entry("CG:LocalAssembly").Work; got != 7 {
		t.Fatalf("nested work %d, want 7", got)
	}
	if got := tm.Entry("Alignment").Work; got != 100 {
		t.Fatalf("reported work %d, want 100", got)
	}
	if outer, inner := tm.Entry("ExtractContig").Nanos, tm.Entry("CG:LocalAssembly").Nanos; outer < inner {
		t.Fatalf("outer row %v shorter than the row nested in it %v", outer, inner)
	}
}
