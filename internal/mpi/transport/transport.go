// Package transport defines the byte-message seam beneath the mpi runtime:
// point-to-point delivery of tagged byte payloads between the P ranks of one
// job, with src/tag matching, plus endpoint lifecycle and failure
// propagation.
//
// Everything above this seam — collectives, the nonblocking layer, traffic
// counters, deadlock watchdogs, cancellation, observability — lives in
// package mpi and is transport-agnostic. Everything below it is "how bytes
// move": the in-process reference implementation in this file delivers
// through shared mailboxes; transport/tcp delivers over sockets between OS
// processes. A Transport never interprets payloads (the typed wire format is
// package mpi/wire's business) and never counts traffic (package mpi's
// business), so every implementation that satisfies the Transport contract
// yields bit-identical assemblies and equal byte/message counters by
// construction. The cross-transport conformance suite in package mpi
// (conformance_test.go) checks exactly that.
//
// One Transport value is one rank's endpoint. In-process worlds hold P
// endpoints sharing a hub; a multi-process world holds one endpoint per OS
// process, all wired to the same job by an out-of-band rendezvous.
package transport

import (
	"fmt"
	"sync"
)

// Message is one point-to-point transmission: an opaque payload from world
// rank Src under a matching tag. A sender must not touch the payload after
// Send: in-process delivery passes the same backing array to the receiver. A
// payload sent to one destination then has one owner, whoever Matched it
// (package mpi's chunked byte receive keeps it as the result); a payload sent
// to several destinations, as a broadcast forwards its frame, is shared and
// stays read-only for all of them.
type Message struct {
	Src     int
	Tag     int64
	Payload []byte
}

// Transport is one rank's endpoint of a P-rank job.
//
// Send must be buffered (never block on the receiver making progress) and
// must preserve per-(Src, Tag) FIFO order. Match implements MPI-style
// matching: it removes and returns the oldest queued message from src with
// tag; when none is queued it returns a notify channel that is closed on the
// next local delivery, so a caller can scan-then-wait without missing a
// message (grab the channel, re-Match when it closes). Multiple goroutines
// of the owning rank may Match concurrently.
//
// Lifecycle: SetFailureHandler must be called (if at all) before the first
// Send or Match; the handler fires at most once, when the endpoint breaks —
// a peer aborted, a connection died. Transports that can attribute the
// failure to a specific peer deliver a *RankFailure naming the dead rank;
// messages already delivered before the failure stay matchable, so a
// receiver can drain what arrived before deciding how to unwind. Abort tears
// the endpoint down immediately and tells live peers to fail (best effort);
// Close drains politely and releases resources. Both are idempotent; the
// in-process transport has nothing to tear down, so for it they are no-ops.
type Transport interface {
	// Self returns the world rank this endpoint serves.
	Self() int
	// Size returns the job's rank count P.
	Size() int
	// Send queues m for rank dst. m.Src must be Self.
	Send(dst int, m Message) error
	// Match removes and returns the oldest message matching (src, tag).
	// When no match is queued it returns (zero, notify, false); notify is
	// closed on the next delivery to this endpoint.
	Match(src int, tag int64) (Message, <-chan struct{}, bool)
	// SetFailureHandler registers fn to run (once) when the endpoint fails.
	SetFailureHandler(fn func(error))
	// Abort tears the endpoint down without draining, propagating reason to
	// peers best-effort. origin is the world rank the failure is attributed
	// to, or -1 when this endpoint's own rank is the origin. A cascading
	// abort (a rank tearing down because it learned some other rank died)
	// passes the original rank, so peers racing both signals attribute the
	// failure to the rank that actually died, never to the messenger.
	Abort(origin int, reason string)
	// Close releases the endpoint after a polite drain.
	Close() error
}

// RankFailure is the error a transport delivers to its failure handler when
// a specific peer rank is lost: its process died, its connection broke, or it
// aborted the job. Rank is the world rank of the dead peer; Err carries the
// transport-level cause. Callers above the seam (package mpi, the pipeline
// engine) unwrap it with errors.As to name the failed rank in diagnostics and
// to decide restartability.
type RankFailure struct {
	Rank int
	Err  error
}

func (e *RankFailure) Error() string { return fmt.Sprintf("rank %d failed: %v", e.Rank, e.Err) }

// Unwrap exposes the transport-level cause to errors.Is/As chains.
func (e *RankFailure) Unwrap() error { return e.Err }

// QueueInstrumented is optionally implemented by transports whose local
// delivery queue can report depth changes (package mpi wires the hook to the
// mpi.mailbox_depth gauge). Setting it may race with deliveries: a peer of a
// multi-process world can send before this process attaches its metrics.
type QueueInstrumented interface {
	SetQueueDepthHook(fn func(delta int64))
}

// PendingDumper is optionally implemented by transports that can describe
// their queued-but-unmatched messages; package mpi includes the dump in
// deadlock-watchdog panics.
type PendingDumper interface {
	PendingDump() string
}

// Mailbox is the matching queue shared by the built-in transports: any
// goroutine may Push; the owning rank's goroutines (including posted
// nonblocking-receive matchers) Take concurrently. Wakeups must reach every
// waiter, so Push closes the current generation channel (a broadcast) and
// each waiter re-scans whenever the generation it grabbed under the lock is
// closed — a single-slot signal channel would wake one arbitrary waiter and
// strand the message's actual addressee until its watchdog fired.
type Mailbox struct {
	mu    sync.Mutex
	queue []Message
	gen   chan struct{} // closed and replaced on every push
	depth func(int64)   // optional queue-depth hook (mpi.mailbox_depth)
}

// NewMailbox returns an empty mailbox.
func NewMailbox() *Mailbox {
	return &Mailbox{gen: make(chan struct{})}
}

// SetDepthHook registers fn to observe queue-depth deltas, starting with one
// delta for the messages already queued. It is safe against concurrent
// Push and Take.
func (m *Mailbox) SetDepthHook(fn func(delta int64)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.depth = fn
	if fn != nil && len(m.queue) > 0 {
		fn(int64(len(m.queue)))
	}
}

// Push appends msg and wakes every waiter.
func (m *Mailbox) Push(msg Message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	if m.depth != nil {
		m.depth(1)
	}
	close(m.gen)
	m.gen = make(chan struct{})
	m.mu.Unlock()
}

// Take removes and returns the first message matching (src, tag), preserving
// FIFO order among matching messages. When no match is queued it returns the
// current generation channel, which is closed by the next Push — grabbing it
// under the same lock as the scan means a waiter can never miss the push
// that delivers its message.
func (m *Mailbox) Take(src int, tag int64) (Message, <-chan struct{}, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, msg := range m.queue {
		if msg.Src == src && msg.Tag == tag {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			if m.depth != nil {
				m.depth(-1)
			}
			return msg, nil, true
		}
	}
	return Message{}, m.gen, false
}

// PendingDump formats queued messages for deadlock diagnostics.
func (m *Mailbox) PendingDump() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := ""
	for i, msg := range m.queue {
		if i == 8 {
			s += fmt.Sprintf(" …(%d more)", len(m.queue)-8)
			break
		}
		s += fmt.Sprintf(" (src=%d tag=%d len=%d)", msg.Src, msg.Tag, len(msg.Payload))
	}
	return s
}

// inprocHub is the shared state of an in-process job: one mailbox per rank.
type inprocHub struct {
	boxes []*Mailbox
}

// inproc is one rank's endpoint of an in-process job — the reference
// Transport implementation, extracted from the original simulated-world
// mailboxes. Send is a queue append, so "network" delivery is immediate and
// buffered; Abort/Close are no-ops because rank goroutines share the
// process and unwind through the mpi world's own cancellation.
type inproc struct {
	hub  *inprocHub
	self int
}

// NewInproc builds the endpoints of a p-rank in-process job, index i serving
// rank i. All endpoints share one delivery hub.
func NewInproc(p int) []Transport {
	if p <= 0 {
		panic(fmt.Sprintf("transport: job size %d must be positive", p))
	}
	hub := &inprocHub{boxes: make([]*Mailbox, p)}
	for i := range hub.boxes {
		hub.boxes[i] = NewMailbox()
	}
	eps := make([]Transport, p)
	for i := range eps {
		eps[i] = &inproc{hub: hub, self: i}
	}
	return eps
}

func (t *inproc) Self() int { return t.self }
func (t *inproc) Size() int { return len(t.hub.boxes) }

func (t *inproc) Send(dst int, m Message) error {
	if dst < 0 || dst >= len(t.hub.boxes) {
		return fmt.Errorf("transport: dst rank %d out of range [0,%d)", dst, len(t.hub.boxes))
	}
	t.hub.boxes[dst].Push(m)
	return nil
}

func (t *inproc) Match(src int, tag int64) (Message, <-chan struct{}, bool) {
	return t.hub.boxes[t.self].Take(src, tag)
}

func (t *inproc) SetFailureHandler(func(error)) {}
func (t *inproc) Abort(int, string)             {}
func (t *inproc) Close() error                  { return nil }

func (t *inproc) SetQueueDepthHook(fn func(int64)) {
	t.hub.boxes[t.self].SetDepthHook(fn)
}

func (t *inproc) PendingDump() string {
	return t.hub.boxes[t.self].PendingDump()
}
