// Package obs is the observability substrate of the pipeline: per-rank event
// tracing with Chrome trace-event (Perfetto) export, a typed metrics registry
// with deterministic cross-rank merging, and the machine-readable run
// manifest (RUN.json) that benchguard and CI consume.
//
// The package is a leaf — it imports only the standard library — so every
// layer of the stack (mpi, par, kmer, spmat, overlap, pipeline, elba) can
// report into it without import cycles. All recording entry points are
// nil-safe: a nil *Lane, *Registry, *Counter, *Gauge or *Histogram turns the
// call into an immediate return, which is what makes observability zero-cost
// when disabled — hot paths guard with one nil check and never allocate.
//
// Span model (DESIGN.md §10): one Lane per simulated rank, exported as one
// Perfetto process (pid = rank). Within a lane, thread id 0 is the rank's
// main goroutine — stage spans, blocking-receive waits and nonblocking Wait
// spans land there — and thread id 1+w is worker w of the rank's intra-rank
// pool, carrying the worker-pool task spans. Sends are instant events (they
// are buffered and complete at post time; a zero-duration span would only
// clutter the timeline).
//
// Lanes grow as they record, up to a fixed capacity, and are then ring
// buffers: the oldest event is overwritten and a dropped counter advances, so
// a short run costs only the events it records, tracing a long run costs
// bounded memory, and the tail — usually the interesting part — survives.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// DefaultLaneCap is the per-rank event capacity of NewTrace.
const DefaultLaneCap = 1 << 16

// Arg is one key/value annotation of an event (src, dst, tag, bytes, …).
type Arg struct {
	K string
	V int64
}

// Event is one recorded trace event. Ph is 'X' for a complete span (Ts..Ts+Dur)
// or 'i' for an instant, matching the Chrome trace-event phase letters.
type Event struct {
	Name string
	Cat  string
	Ph   byte
	TID  int32
	Ts   int64 // nanoseconds since the trace epoch
	Dur  int64 // nanoseconds; spans only
	Args []Arg
}

// Lane records events for one rank. All methods are safe on a nil receiver
// (no-ops) and safe for concurrent use — a rank's pool workers and posted
// receive matchers record into the same lane as the rank goroutine.
type Lane struct {
	epoch    time.Time
	mu       sync.Mutex
	capacity int     // buf grows to this many events, then is a ring
	buf      []Event // oldest first until full
	head     int     // index of the oldest event once full
	dropped  int64
}

// Start returns the current trace timestamp, to be passed to Span when the
// spanned work completes. On a nil lane it returns 0; pair it with the same
// nil lane's Span, which discards it.
func (l *Lane) Start() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.epoch))
}

// Span records a complete span on thread tid from start (a Start result) to
// now. No-op on a nil lane.
func (l *Lane) Span(tid int32, cat, name string, start int64, args ...Arg) {
	if l == nil {
		return
	}
	now := int64(time.Since(l.epoch))
	l.record(Event{Name: name, Cat: cat, Ph: 'X', TID: tid, Ts: start, Dur: now - start, Args: args})
}

// Instant records a zero-duration event on thread tid. No-op on a nil lane.
func (l *Lane) Instant(tid int32, cat, name string, args ...Arg) {
	if l == nil {
		return
	}
	l.record(Event{Name: name, Cat: cat, Ph: 'i', TID: tid, Ts: int64(time.Since(l.epoch)), Args: args})
}

func (l *Lane) record(e Event) {
	l.mu.Lock()
	if len(l.buf) < l.capacity {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.head] = e
		l.head = (l.head + 1) % len(l.buf)
		l.dropped++
	}
	l.mu.Unlock()
}

// Events returns a copy of the retained events, oldest first. Nil lane: nil.
func (l *Lane) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.buf))
	for i := range out {
		out[i] = l.buf[(l.head+i)%len(l.buf)]
	}
	return out
}

// Dropped returns how many events were overwritten by the ring. Nil lane: 0.
func (l *Lane) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Trace is a set of per-rank lanes sharing one epoch, so timestamps from
// different ranks line up on the exported timeline.
type Trace struct {
	epoch time.Time
	lanes []*Lane
}

// NewTrace creates a trace with one DefaultLaneCap-event lane per rank.
func NewTrace(ranks int) *Trace { return NewTraceCap(ranks, DefaultLaneCap) }

// NewTraceCap creates a trace with a custom per-rank event capacity.
func NewTraceCap(ranks, capacity int) *Trace {
	if ranks < 1 {
		panic(fmt.Sprintf("obs: trace needs at least 1 rank, got %d", ranks))
	}
	if capacity < 1 {
		capacity = 1
	}
	t := &Trace{epoch: time.Now(), lanes: make([]*Lane, ranks)}
	for i := range t.lanes {
		t.lanes[i] = &Lane{epoch: t.epoch, capacity: capacity}
	}
	return t
}

// Ranks returns the number of lanes. Nil trace: 0.
func (t *Trace) Ranks() int {
	if t == nil {
		return 0
	}
	return len(t.lanes)
}

// Rank returns rank i's lane. Nil trace: nil (all Lane methods tolerate it).
func (t *Trace) Rank(i int) *Lane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

// jsonEvent is the Chrome trace-event wire form.
type jsonEvent struct {
	Name string           `json:"name,omitempty"`
	Cat  string           `json:"cat,omitempty"`
	Ph   string           `json:"ph"`
	Pid  int              `json:"pid"`
	Tid  int32            `json:"tid"`
	Ts   float64          `json:"ts"` // microseconds
	Dur  *float64         `json:"dur,omitempty"`
	S    string           `json:"s,omitempty"` // instant scope
	Args map[string]int64 `json:"args,omitempty"`
}

// WriteJSON exports the trace as Chrome trace-event JSON loadable by Perfetto
// (ui.perfetto.dev) and chrome://tracing: ranks appear as processes
// ("rank N"), thread 0 as "rank main", thread 1+w as "worker w". Each
// process's name metadata carries its lane's dropped_events count, so a
// trace whose ring overwrote its head says so. Output is deterministic for a
// given set of recorded events (ranks ascending, each lane's events sorted by
// timestamp).
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteJSON on a nil trace")
	}
	var evs []jsonEvent
	type metaEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var metas []metaEvent
	for pid, l := range t.lanes {
		events := l.Events()
		sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
		metas = append(metas,
			metaEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": fmt.Sprintf("rank %d", pid), "dropped_events": l.Dropped()}},
			metaEvent{Name: "process_sort_index", Ph: "M", Pid: pid, Args: map[string]any{"sort_index": pid}})
		tids := map[int32]bool{}
		for _, e := range events {
			tids[e.TID] = true
		}
		var order []int32
		for tid := range tids {
			order = append(order, tid)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, tid := range order {
			name := "rank main"
			if tid > 0 {
				name = fmt.Sprintf("worker %d", tid-1)
			}
			metas = append(metas,
				metaEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}},
				metaEvent{Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"sort_index": tid}})
		}
		for _, e := range events {
			je := jsonEvent{Name: e.Name, Cat: e.Cat, Ph: string(rune(e.Ph)), Pid: pid,
				Tid: e.TID, Ts: float64(e.Ts) / 1e3}
			if e.Ph == 'X' {
				d := float64(e.Dur) / 1e3
				je.Dur = &d
			}
			if e.Ph == 'i' {
				je.S = "t" // thread-scoped instant
			}
			if len(e.Args) > 0 {
				je.Args = make(map[string]int64, len(e.Args))
				for _, a := range e.Args {
					je.Args[a.K] = a.V
				}
			}
			evs = append(evs, je)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []any  `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}{TraceEvents: concatAny(metas, evs), DisplayTimeUnit: "ms"})
}

func concatAny[A, B any](as []A, bs []B) []any {
	out := make([]any, 0, len(as)+len(bs))
	for _, a := range as {
		out = append(out, a)
	}
	for _, b := range bs {
		out = append(out, b)
	}
	return out
}

// WriteFile writes the Perfetto JSON export to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
