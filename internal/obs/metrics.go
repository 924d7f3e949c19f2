package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone, atomically updated counter. All methods are no-ops
// (or zero) on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add accumulates n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the accumulated total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value gauge with a high-watermark. All methods are no-ops
// (or zero) on a nil receiver.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores v and raises the watermark if exceeded.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.raise(v)
}

// Add moves the gauge by delta (e.g. +1/-1 around a queue) and raises the
// watermark if the new value exceeds it.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.raise(g.v.Add(delta))
}

func (g *Gauge) raise(v int64) {
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-watermark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds values ≤ 0, bucket i ≥ 1 holds values of bit length i (2^(i-1) ≤ v <
// 2^i).
const histBuckets = 65

// Histogram is a power-of-two-bucketed distribution of int64 observations
// (message sizes, alignment cells, panel nnz). All methods are no-ops (or
// zero values) on a nil receiver.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	minInit sync.Once
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.minInit.Do(func() { h.min.Store(math.MaxInt64) })
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Metric kinds in snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Bucket is one histogram bucket in a snapshot: N observations with value ≤
// Hi (and greater than the previous bucket's Hi).
type Bucket struct {
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
}

// Metric is one metric's snapshot, JSON-friendly for the manifest. Counters
// use Value; gauges use Value and Max; histograms use Count/Sum/Min/Max and
// Buckets.
type Metric struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Value   int64    `json:"value,omitempty"`
	Max     int64    `json:"max,omitempty"`
	Min     int64    `json:"min,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Registry holds one rank's metrics. Handle lookups (Counter, Gauge,
// Histogram) are mutex-protected and create on first use; hot paths hoist
// the returned handle and update it lock-free. All methods are nil-safe: a
// nil registry returns nil handles, whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter. Nil registry: nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil registry: nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Nil registry:
// nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every metric's current state, sorted by name — the
// deterministic per-rank view. Nil registry: nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: KindCounter, Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: g.Value(), Max: g.Max()})
	}
	for name, h := range r.hists {
		m := Metric{Name: name, Kind: KindHistogram, Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
		if m.Count > 0 {
			m.Min = h.min.Load()
		}
		for i := 0; i < histBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				m.Buckets = append(m.Buckets, Bucket{Hi: bucketHi(i), N: n})
			}
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// bucketHi returns bucket i's inclusive upper bound (0 for the ≤0 bucket,
// 2^i − 1 otherwise).
func bucketHi(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<i - 1
}

// Merge folds per-rank snapshots into one deterministic cross-rank view:
// counter values and histogram counts/sums/buckets add, gauge values add
// (the cross-rank total) while maxima and minima take the extreme. Metrics
// are matched by name; the result is sorted by name.
func Merge(snaps ...[]Metric) []Metric {
	byName := map[string]*Metric{}
	var order []string
	for _, snap := range snaps {
		for _, m := range snap {
			acc, ok := byName[m.Name]
			if !ok {
				cp := m
				cp.Buckets = append([]Bucket(nil), m.Buckets...)
				byName[m.Name] = &cp
				order = append(order, m.Name)
				continue
			}
			switch acc.Kind {
			case KindCounter:
				acc.Value += m.Value
			case KindGauge:
				acc.Value += m.Value
				if m.Max > acc.Max {
					acc.Max = m.Max
				}
			case KindHistogram:
				if m.Count > 0 && (acc.Count == 0 || m.Min < acc.Min) {
					acc.Min = m.Min
				}
				acc.Count += m.Count
				acc.Sum += m.Sum
				if m.Max > acc.Max {
					acc.Max = m.Max
				}
				acc.Buckets = mergeBuckets(acc.Buckets, m.Buckets)
			}
		}
	}
	sort.Strings(order)
	out := make([]Metric, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

func mergeBuckets(a, b []Bucket) []Bucket {
	byHi := map[int64]int64{}
	for _, x := range a {
		byHi[x.Hi] += x.N
	}
	for _, x := range b {
		byHi[x.Hi] += x.N
	}
	out := make([]Bucket, 0, len(byHi))
	for hi, n := range byHi {
		out = append(out, Bucket{Hi: hi, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hi < out[j].Hi })
	return out
}

// MetricSet is the per-rank registry collection an assembly run reports
// into: one Registry per simulated rank, recorded per rank and merged
// deterministically in the run manifest. In a multi-process run each process
// populates only its own rank's registry; after every stage it absorbs the
// others' snapshots — all-gathered over the engine's control communicator —
// with SetSnapshot, so Snapshots covers the whole world without a shared
// filesystem.
type MetricSet struct {
	regs []*Registry

	// imported holds per-rank snapshots gathered from other processes; a
	// non-nil entry overrides that rank's live registry in Snapshots.
	mu       sync.Mutex
	imported [][]Metric
}

// NewMetricSet creates a set with one registry per rank.
func NewMetricSet(ranks int) *MetricSet {
	if ranks < 1 {
		panic(fmt.Sprintf("obs: metric set needs at least 1 rank, got %d", ranks))
	}
	s := &MetricSet{regs: make([]*Registry, ranks)}
	for i := range s.regs {
		s.regs[i] = NewRegistry()
	}
	return s
}

// Ranks returns the number of per-rank registries. Nil set: 0.
func (s *MetricSet) Ranks() int {
	if s == nil {
		return 0
	}
	return len(s.regs)
}

// Rank returns rank i's registry. Nil set: nil (nil-safe handles follow).
func (s *MetricSet) Rank(i int) *Registry {
	if s == nil {
		return nil
	}
	return s.regs[i]
}

// SetSnapshot installs a fixed snapshot for rank i, overriding its live
// registry in Snapshots. A distributed run calls it on every process with
// the snapshots gathered from the others; installing nil reverts rank i to
// its live registry. Nil set: no-op.
func (s *MetricSet) SetSnapshot(i int, snap []Metric) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.imported == nil {
		s.imported = make([][]Metric, len(s.regs))
	}
	s.imported[i] = snap
}

// Snapshots returns every rank's effective snapshot, in rank order — the
// imported one where installed, the live registry's otherwise: the one view
// the run manifest records per rank and merges. Nil set: nil.
func (s *MetricSet) Snapshots() [][]Metric {
	if s == nil {
		return nil
	}
	snaps := make([][]Metric, len(s.regs))
	s.mu.Lock()
	copy(snaps, s.imported)
	s.mu.Unlock()
	for i, snap := range snaps {
		if snap == nil {
			snaps[i] = s.regs[i].Snapshot()
		}
	}
	return snaps
}
