package par

import (
	"sync/atomic"
	"testing"
)

// state is a fake per-worker aligner: it accumulates work like the real
// backends do.
type state struct {
	id   int
	work int64
}

func newStates() func(int) *state {
	return func(w int) *state { return &state{id: w} }
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, 100, 1001} {
			p := NewPool(workers, newStates())
			visits := make([]int32, n)
			ForEach(p, n, func(s *state, i int) {
				atomic.AddInt32(&visits[i], 1)
				s.work += int64(i)
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
			var total int64
			for _, s := range p.States() {
				total += s.work
			}
			want := int64(n) * int64(n-1) / 2
			if n == 0 {
				want = 0
			}
			if total != want {
				t.Fatalf("workers=%d n=%d: summed work %d, want %d", workers, n, total, want)
			}
		}
	}
}

func TestForEachDeterministicIndexedOutput(t *testing.T) {
	n := 500
	ref := make([]int, n)
	for i := range ref {
		ref[i] = i * i
	}
	for trial := 0; trial < 5; trial++ {
		p := NewPool(4, newStates())
		out := make([]int, n)
		ForEach(p, n, func(_ *state, i int) { out[i] = i * i })
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("trial %d: out[%d]=%d, want %d", trial, i, out[i], ref[i])
			}
		}
	}
}

func TestForEachBalancedStaticAssignment(t *testing.T) {
	weights := []int64{100, 1, 1, 50, 1, 80, 1, 1, 1, 40}
	// The same (weights, workers) must give every worker the same item set
	// and per-worker work totals on every run — the property that keeps
	// per-worker aligner counters reproducible.
	var refWork []int64
	for trial := 0; trial < 5; trial++ {
		p := NewPool(3, newStates())
		visits := make([]int32, len(weights))
		ForEachBalanced(p, weights, func(s *state, i int) {
			atomic.AddInt32(&visits[i], 1)
			s.work += weights[i]
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("index %d visited %d times", i, v)
			}
		}
		work := make([]int64, p.Workers())
		for w, s := range p.States() {
			work[w] = s.work
		}
		if trial == 0 {
			refWork = work
			continue
		}
		for w := range work {
			if work[w] != refWork[w] {
				t.Fatalf("trial %d: worker %d work %d, want %d (static schedule broken)", trial, w, work[w], refWork[w])
			}
		}
	}
}

func TestForEachBalancedOrderWithinWorker(t *testing.T) {
	// Equal weights: each worker must still see its items in ascending index
	// order (stable LPT + ordered walk).
	weights := make([]int64, 200)
	for i := range weights {
		weights[i] = 1
	}
	p := NewPool(4, newStates())
	last := make([]int, p.Workers())
	for i := range last {
		last[i] = -1
	}
	ForEachBalanced(p, weights, func(s *state, i int) {
		if i <= last[s.id] {
			t.Errorf("worker %d saw index %d after %d", s.id, i, last[s.id])
		}
		last[s.id] = i
	})
}

func TestNewPoolClampsWorkers(t *testing.T) {
	p := NewPool(0, newStates())
	if p.Workers() != 1 {
		t.Fatalf("workers=%d, want 1", p.Workers())
	}
	ran := false
	ForEach(p, 1, func(s *state, i int) { ran = true })
	if !ran {
		t.Fatal("single-item run skipped")
	}
}

// TestWorkerPanicReachesCaller: a panic in one item, on one of four workers,
// is re-raised on the calling goroutine with its value once the run is over —
// so the rank that called the pool fails, not the process — for both
// schedules.
func TestWorkerPanicReachesCaller(t *testing.T) {
	type boom struct{ item int }
	const n, bad = 64, 37
	for name, run := range map[string]func(p *Pool[*state], fn func(*state, int)){
		"ForEach": func(p *Pool[*state], fn func(*state, int)) { ForEach(p, n, fn) },
		"ForEachBalanced": func(p *Pool[*state], fn func(*state, int)) {
			weights := make([]int64, n)
			for i := range weights {
				weights[i] = int64(1 + i%5)
			}
			ForEachBalanced(p, weights, fn)
		},
	} {
		t.Run(name, func(t *testing.T) {
			var got any
			func() {
				defer func() { got = recover() }()
				run(NewPool(4, newStates()), func(_ *state, i int) {
					if i == bad {
						panic(boom{i})
					}
				})
			}()
			if got != (boom{bad}) {
				t.Fatalf("caller recovered %v, want %v", got, boom{bad})
			}
		})
	}
}
