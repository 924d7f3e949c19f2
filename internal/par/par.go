// Package par is the intra-rank parallel execution subsystem: a bounded
// worker pool that multiplies each simulated MPI rank by a set of threads,
// the hybrid distributed/shared-memory model of the paper (MPI ranks ×
// OpenMP threads inside each rank). The pipeline's compute-heavy stages —
// pairwise alignment and k-mer extraction — run their per-item loops through
// a pool instead of serially inside the rank goroutine.
//
// Two properties the pipeline depends on are built in:
//
//   - Per-worker state. Each worker owns one instance of S (e.g. its own
//     align.Aligner), created once and reused across items, so backends that
//     keep internal buffers and cumulative work counters need not be safe
//     for concurrent use. Summing a counter over Pool.States after a run
//     yields the same total regardless of how items were scheduled, because
//     every item is processed exactly once.
//
//   - Deterministic result ordering. Workers write results by item index
//     (the caller passes an indexed fn and owns an indexed output slice), so
//     downstream folds see items in input order no matter which worker ran
//     them or when it finished. Combined with ForEachBalanced's static LPT
//     schedule, even the per-worker assignment is reproducible run to run.
package par

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/partition"
)

// Pool is a fixed set of workers, each owning private state of type S.
// A Pool is cheap (no goroutines are retained between runs: simulated rank
// goroutines come and go, so keeping idle OS-scheduled workers per rank
// would leak); each ForEach spawns its workers for the duration of the call.
type Pool[S any] struct {
	states []S
	// Optional tracing (SetTrace): every chunk a worker processes becomes a
	// span named spanName on the worker's thread lane (tid 1+w; tid 0 is the
	// rank's main goroutine).
	lane     *obs.Lane
	spanName string
}

// NewPool creates a pool of max(1, workers) workers; newState(w) builds
// worker w's private state.
func NewPool[S any](workers int, newState func(worker int) S) *Pool[S] {
	if workers < 1 {
		workers = 1
	}
	p := &Pool[S]{states: make([]S, workers)}
	for w := range p.states {
		p.states[w] = newState(w)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool[S]) Workers() int { return len(p.states) }

// States exposes the per-worker states, e.g. to sum work counters after a
// run. Callers must not use them while a ForEach is in flight.
func (p *Pool[S]) States() []S { return p.states }

// SetTrace enables per-chunk task spans on lane, named name, one thread lane
// per worker. A nil lane (tracing off) keeps the pool span-free; calling it
// while a ForEach is in flight is a race.
func (p *Pool[S]) SetTrace(lane *obs.Lane, name string) {
	p.lane = lane
	p.spanName = name
}

// span records one worker chunk [lo,hi) as a task span on worker w's thread
// lane. Nil-safe via the lane.
func (p *Pool[S]) span(w, lo, hi int, start int64) {
	if p.lane == nil {
		return
	}
	p.lane.Span(int32(1+w), "pool", p.spanName, start,
		obs.Arg{K: "lo", V: int64(lo)}, obs.Arg{K: "n", V: int64(hi - lo)})
}

// panics holds the first value a pool's workers panicked with during one
// run. Each worker recovers its own panic (a goroutine that dies unrecovered
// takes the whole process down, past the rank's recover in package mpi) and
// the run re-panics the first value on the calling goroutine once every
// worker has returned, so a bad item fails its rank, not the process.
type panics struct {
	once  sync.Once
	value any // never nil once set: recover turns panic(nil) into a *runtime.PanicNilError
}

// catch is deferred by each worker.
func (p *panics) catch() {
	if v := recover(); v != nil {
		p.once.Do(func() { p.value = v })
	}
}

// rethrow re-panics the first caught value, if any; call it after the
// workers' WaitGroup.
func (p *panics) rethrow() {
	if p.value != nil {
		panic(p.value)
	}
}

// ForEach processes item indices [0, n) across the pool's workers and
// returns when all are done. Items are handed out in contiguous chunks from
// an atomic cursor (dynamic schedule, good when per-item cost is uniform or
// unknown); fn receives the running worker's state and the item index.
// Result ordering is the caller's: write out[i] inside fn. A panic in fn is
// re-raised on the caller once every worker has stopped (the first value, if
// several panic).
//
// With one worker (or n ≤ 1) fn runs inline on the calling goroutine — the
// Threads=1 configuration is byte-for-byte the old serial loop, with no
// scheduling overhead.
func ForEach[S any](p *Pool[S], n int, fn func(s S, i int)) {
	if n <= 0 {
		return
	}
	if p.Workers() == 1 || n == 1 {
		st := p.lane.Start()
		for i := 0; i < n; i++ {
			fn(p.states[0], i)
		}
		p.span(0, 0, n, st)
		return
	}
	chunk := n / (p.Workers() * 8)
	if chunk < 1 {
		chunk = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	var pv panics
	for w := 0; w < p.Workers(); w++ {
		wg.Add(1)
		go func(w int, s S) {
			defer wg.Done()
			defer pv.catch()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				st := p.lane.Start()
				for i := lo; i < hi; i++ {
					fn(s, i)
				}
				p.span(w, lo, hi, st)
			}
		}(w, p.states[w])
	}
	wg.Wait()
	pv.rethrow()
}

// ForEachBalanced processes item indices [0, len(weights)) with a static
// LPT schedule (partition.LPT): item i, weighted weights[i], always runs on
// the same worker for a given (weights, pool size), and each worker visits
// its items in ascending index order. Use it when per-item cost is known and
// skewed — e.g. alignment candidates weighted by sequence length — so the
// longest items don't serialize behind a naive block split, and when
// per-worker state must accumulate identically across runs. A panic in fn
// is re-raised on the caller as in ForEach.
func ForEachBalanced[S any](p *Pool[S], weights []int64, fn func(s S, i int)) {
	n := len(weights)
	if n <= 0 {
		return
	}
	if p.Workers() == 1 || n == 1 {
		st := p.lane.Start()
		for i := 0; i < n; i++ {
			fn(p.states[0], i)
		}
		p.span(0, 0, n, st)
		return
	}
	assign, _ := partition.LPT(weights, p.Workers())
	items := make([][]int32, p.Workers())
	for i, w := range assign {
		items[w] = append(items[w], int32(i))
	}
	var wg sync.WaitGroup
	var pv panics
	for w := 0; w < p.Workers(); w++ {
		if len(items[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, s S, mine []int32) {
			defer wg.Done()
			defer pv.catch()
			st := p.lane.Start()
			for _, i := range mine {
				fn(s, int(i))
			}
			p.span(w, int(mine[0]), int(mine[0])+len(mine), st)
		}(w, p.states[w], items[w])
	}
	wg.Wait()
	pv.rethrow()
}
