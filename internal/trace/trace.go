// Package trace provides per-rank stage timers, per-stage communication
// counters and abstract work counters. Together they feed the performance
// model (package perfmodel) that reproduces the paper's scaling figures on
// hosts with fewer cores than simulated ranks, and the runtime breakdowns of
// Figures 5 and 6.
//
// Communication splits into comm_overlap (sent through the nonblocking mpi
// layer, so it can hide behind computation) and comm_exposed (the blocking
// remainder); the two always sum to the stage total, and perfmodel's
// overlap term charges only the exposed share plus whatever overlappable
// traffic exceeds the stage's compute time.
//
// Rows are written only by measurement — Stage charges an interval's time and
// the rank's traffic delta, AddWork adds work units — so the top-level rows
// of a pipeline run (one Stage per graph node, wrapped by the engine)
// partition its traffic, and nested "PREFIX:rest" sub-stages subdivide their
// parent without adding to it. A row is only a name here: which rows a run
// has, and the order they are listed in, is the pipeline's stage table
// (pipeline.RowNames).
package trace

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/mpi"
)

// Record is one stage's accounting on one rank: the one row form, held by
// Timers, all-gathered between the processes of a multi-process run and
// persisted by durable checkpoints (every field is a fixed-width integer or a
// string, so the typed wire codec carries it and the bytes are
// schedule-invariant). OvBytes/OvMsgs are the subset of Bytes/Msgs sent
// through the nonblocking layer — traffic the rank could hide behind
// computation; the exposed remainder is Bytes−OvBytes (so comm_overlap +
// comm_exposed == comm_total by construction). Blocking runs keep the
// overlap counters at zero.
type Record struct {
	Name    string
	Nanos   int64 // measured wall time on this rank
	Bytes   int64 // bytes this rank sent during the stage
	Msgs    int64 // messages this rank sent during the stage
	OvBytes int64 // of Bytes: sent nonblocking (overlappable)
	OvMsgs  int64 // of Msgs: sent nonblocking (overlappable)
	Work    int64 // abstract work units (stage-specific, e.g. DP cells)
}

// Timers accumulates per-stage rows on one rank. Each rank owns its Timers,
// but a rank's intra-rank worker pool (package par) may report work
// concurrently, so all mutating and reading accessors are mutex-protected.
type Timers struct {
	mu   sync.Mutex
	rows []Record       // first-seen order
	idx  map[string]int // name → index into rows
}

// New creates an empty timer set.
func New() *Timers {
	return &Timers{idx: map[string]int{}}
}

// row returns the named row, appending a zero one when it is absent; the
// caller must hold t.mu. Only writers call it: reading a row never creates it.
func (t *Timers) row(name string) *Record {
	i, ok := t.idx[name]
	if !ok {
		i = len(t.rows)
		t.idx[name] = i
		t.rows = append(t.rows, Record{Name: name})
	}
	return &t.rows[i]
}

// Stage times fn under name and attributes this rank's traffic delta of the
// interval to the stage. fn runs outside the lock, so stage bodies may
// themselves report into the same Timers — including nested Stage calls
// under sub-stage names, whose time and traffic are also in the outer row.
func (t *Timers) Stage(name string, c *mpi.Comm, fn func()) {
	var b0, m0, ob0, om0 int64
	if c != nil {
		b0, m0 = c.BytesSent(), c.MsgsSent()
		ob0, om0 = c.BytesAsync(), c.MsgsAsync()
	}
	start := time.Now()
	fn()
	dur := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.row(name)
	r.Nanos += int64(dur)
	if c != nil {
		r.Bytes += c.BytesSent() - b0
		r.Msgs += c.MsgsSent() - m0
		r.OvBytes += c.BytesAsync() - ob0
		r.OvMsgs += c.MsgsAsync() - om0
	}
}

// AddWork accumulates abstract work units under name.
func (t *Timers) AddWork(name string, units int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.row(name).Work += units
}

// Entry returns a copy of the stage's row, or a zero Record when the stage
// has none.
func (t *Timers) Entry(name string) Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.idx[name]; ok {
		return t.rows[i]
	}
	return Record{}
}

// Records returns a copy of the rows in first-seen order. FromRecords
// inverts it exactly.
func (t *Timers) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.rows)
}

// FromRecords builds a timer set holding recs, in order — the checkpoint
// restore path and the multi-process fold.
func FromRecords(recs []Record) *Timers {
	t := New()
	for _, r := range recs {
		*t.row(r.Name) = r
	}
	return t
}

// Clone returns a deep copy. The pipeline engine forks a rank's timers when
// resuming from an artifact snapshot, so the snapshot's accounting is never
// double-counted by the resumed chain.
func (t *Timers) Clone() *Timers { return FromRecords(t.Records()) }

// SummaryEntry aggregates a stage across ranks.
type SummaryEntry struct {
	MaxDur          time.Duration // critical-path convention for breakdowns
	SumBytes        int64
	MaxBytes        int64
	SumMsgs         int64
	MaxMsgs         int64
	SumOverlapBytes int64
	MaxOverlapBytes int64
	SumOverlapMsgs  int64
	MaxOverlapMsgs  int64
	SumWork         int64
	MaxWork         int64
}

// SumExposedBytes returns the non-overlappable share of the stage's summed
// traffic (comm_exposed; SumBytes − SumOverlapBytes).
func (e SummaryEntry) SumExposedBytes() int64 { return e.SumBytes - e.SumOverlapBytes }

// SumExposedMsgs returns the messages not sent through the nonblocking layer
// (SumMsgs − SumOverlapMsgs); with SumExposedBytes it gives the manifest its
// overlap + exposed == total identities.
func (e SummaryEntry) SumExposedMsgs() int64 { return e.SumMsgs - e.SumOverlapMsgs }

// Summary is the cross-rank aggregate of per-rank Timers.
type Summary struct {
	order []string
	m     map[string]SummaryEntry
}

// Names lists stages in first-seen order.
func (s *Summary) Names() []string { return append([]string(nil), s.order...) }

// Get returns a stage's aggregate (zero value if absent).
func (s *Summary) Get(name string) SummaryEntry { return s.m[name] }

// Dur returns the stage's max-across-ranks duration.
func (s *Summary) Dur(name string) time.Duration { return s.m[name].MaxDur }

// Aggregate folds several ranks' timer sets into one cross-rank Summary:
// durations, per-rank bytes/messages and work take the max (critical path);
// bytes, messages and work are also summed (totals). It is local — no
// communication — so folding never perturbs the traffic it reports; a
// multi-process caller moves the ranks' Records on an uncounted channel and
// rebuilds them with FromRecords first.
func Aggregate(ts []*Timers) *Summary {
	out := &Summary{m: map[string]SummaryEntry{}}
	for _, t := range ts {
		if t == nil {
			continue
		}
		for _, w := range t.Records() {
			e, seen := out.m[w.Name]
			if !seen {
				out.order = append(out.order, w.Name)
			}
			if d := time.Duration(w.Nanos); d > e.MaxDur {
				e.MaxDur = d
			}
			e.SumBytes += w.Bytes
			if w.Bytes > e.MaxBytes {
				e.MaxBytes = w.Bytes
			}
			e.SumMsgs += w.Msgs
			if w.Msgs > e.MaxMsgs {
				e.MaxMsgs = w.Msgs
			}
			e.SumOverlapBytes += w.OvBytes
			if w.OvBytes > e.MaxOverlapBytes {
				e.MaxOverlapBytes = w.OvBytes
			}
			e.SumOverlapMsgs += w.OvMsgs
			if w.OvMsgs > e.MaxOverlapMsgs {
				e.MaxOverlapMsgs = w.OvMsgs
			}
			e.SumWork += w.Work
			if w.Work > e.MaxWork {
				e.MaxWork = w.Work
			}
			out.m[w.Name] = e
		}
	}
	return out
}

// Breakdown formats the stage shares like the paper's Figure 5 legend,
// restricted to the given stages (in the given order), with percentages
// against their total.
func (s *Summary) Breakdown(stages []string) string {
	var total time.Duration
	for _, n := range stages {
		total += s.m[n].MaxDur
	}
	var b strings.Builder
	for _, n := range stages {
		e := s.m[n]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(e.MaxDur) / float64(total)
		}
		fmt.Fprintf(&b, "%-22s %12s  %5.1f%%  %9.2f MB  %8d msgs  %9.2f MB overlap\n",
			n, e.MaxDur.Round(time.Microsecond), pct, float64(e.SumBytes)/1e6, e.MaxMsgs,
			float64(e.SumOverlapBytes)/1e6)
	}
	fmt.Fprintf(&b, "%-22s %12s\n", "Total", total.Round(time.Microsecond))
	return b.String()
}
