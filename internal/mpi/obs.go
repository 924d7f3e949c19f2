package mpi

// Observability wiring. A world can carry an optional obs.Trace (per-rank
// event lanes) and obs.MetricSet (per-rank registries; the pipeline engine
// binds one to every world it builds); when absent, every hook below
// compiles down to a nil check on the hot path. SetObs must be
// called before any rank goroutine starts (typically right after NewWorld) —
// the handles are cached per world rank and read without synchronization.

import (
	"repro/internal/mpi/transport"
	"repro/internal/obs"
)

// worldObs caches per-world-rank observability handles so the send/receive
// hot paths never take the registry mutex.
type worldObs struct {
	lanes         []*obs.Lane
	regs          []*obs.Registry
	msgBytes      []*obs.Histogram // mpi.msg_bytes: size of every sent message
	msgBytesAsync []*obs.Histogram // mpi.msg_bytes_async: nonblocking subset
	reqGauge      []*obs.Gauge     // mpi.inflight_reqs: posted, not yet drained
}

// SetObs attaches a trace and/or metric set to the world. Either may be nil
// (tracing and metrics are independent). It must be called before the first
// Run; the trace and metric set must cover at least Size() ranks.
func (w *World) SetObs(t *obs.Trace, m *obs.MetricSet) {
	if t == nil && m == nil {
		return
	}
	if t != nil && t.Ranks() < w.size {
		panic("mpi: trace covers fewer ranks than the world")
	}
	if m != nil && m.Ranks() < w.size {
		panic("mpi: metric set covers fewer ranks than the world")
	}
	o := &worldObs{
		lanes:         make([]*obs.Lane, w.size),
		regs:          make([]*obs.Registry, w.size),
		msgBytes:      make([]*obs.Histogram, w.size),
		msgBytesAsync: make([]*obs.Histogram, w.size),
		reqGauge:      make([]*obs.Gauge, w.size),
	}
	for i := 0; i < w.size; i++ {
		if t != nil {
			o.lanes[i] = t.Rank(i)
		}
		if m != nil {
			reg := m.Rank(i)
			o.regs[i] = reg
			o.msgBytes[i] = reg.Histogram("mpi.msg_bytes")
			o.msgBytesAsync[i] = reg.Histogram("mpi.msg_bytes_async")
			o.reqGauge[i] = reg.Gauge("mpi.inflight_reqs")
			// Queue-depth instrumentation is an optional transport capability
			// (remote ranks have no local endpoint to instrument).
			if ep := w.eps[i]; ep != nil {
				if qi, ok := ep.(transport.QueueInstrumented); ok {
					qi.SetQueueDepthHook(reg.Gauge("mpi.mailbox_depth").Add)
				}
			}
		}
	}
	w.obs = o
}

// Lane returns this rank's event lane, or nil when tracing is off. The
// returned lane's methods are nil-safe, so callers may use it unguarded in
// cold paths and nil-check only where allocation of span arguments matters.
func (c *Comm) Lane() *obs.Lane {
	o := c.world.obs
	if o == nil {
		return nil
	}
	return o.lanes[c.group[c.rank]]
}

// Metrics returns this rank's metric registry, or nil when metrics are off.
// Nil registries hand out nil handles whose methods are no-ops.
func (c *Comm) Metrics() *obs.Registry {
	o := c.world.obs
	if o == nil {
		return nil
	}
	return o.regs[c.group[c.rank]]
}
