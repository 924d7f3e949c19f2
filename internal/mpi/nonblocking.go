package mpi

// Nonblocking point-to-point operations and the asynchronous collectives
// built on them. They let a rank overlap communication with local
// computation — the mechanism diBELLA uses to hide its SUMMA broadcasts and
// sequence exchanges behind the local multiply and walk.
//
// Semantics in this simulator:
//
//   - Isend copies its payload and delivers immediately (buffered send
//     semantics, like the blocking Send), so the returned request is already
//     complete. Its traffic is counted into the BytesAsync/MsgsAsync overlap
//     counters at post time — which keeps per-stage traffic attribution
//     identical between blocking and nonblocking runs of the same program.
//   - Irecv posts a background matcher that drains the message into the
//     request as soon as it arrives, so by the time the rank calls Wait the
//     transfer has usually already completed — the wait time is the exposed
//     (non-overlapped) communication.
//   - Every request must be waited exactly once. A second Wait panics (the
//     MPI "request reuse" error made loud), and dropping a request without
//     waiting leaks its matcher goroutine for the life of the world.
//   - The deadlock watchdog of a posted receive arms only when Wait starts
//     blocking: a receive posted far ahead of its matching send (the whole
//     point of the overlap schedule) is never declared deadlocked while the
//     rank is still computing — only a rank actually stuck in Wait panics.
//   - Tags: the async collectives consume one communicator sequence number
//     each, exactly like their blocking counterparts, so SPMD programs may
//     freely interleave posted operations with later collectives. Hand-rolled
//     nonblocking exchanges reserve a tag with ReserveTag.
//   - Blocking is a mode of the rank, not a second copy of a kernel: on a
//     blocking rank (SetBlocking(true)) the same calls make the same messages
//     with nothing behind the rank's back: a post still consumes its
//     tag and still sends what it sends (sends are buffered), but the work a
//     nonblocking rank would hand to a background goroutine — the receive of
//     an Irecv, the tree of an IBcast — is kept in the request and run by
//     Wait, on the rank goroutine. Done stays false until then, nothing is
//     counted into BytesAsync/MsgsAsync, and with tracing on every such Wait
//     is a wait:* span: all of the rank's traffic is exposed. The work is
//     deferred to Wait and not run at post because the kernels post their
//     receives before their sends; a receive completed at post would wait for
//     a send its peer, stuck in the same place, never reaches.
//
// Panics raised inside a background matcher (e.g. the deadlock watchdog) are
// captured and re-raised on the rank goroutine at Wait, where Run's recover
// turns them into a RankError; deferred work panics at Wait by itself.

import (
	"sync/atomic"

	"repro/internal/mpi/wire"
	"repro/internal/obs"
)

// Request is the common handle of all nonblocking operations; the typed
// result accessors live on the concrete request types.
type Request interface {
	// Wait blocks until the operation completes. It must be called exactly
	// once; a second call panics.
	Wait()
	// Done reports completion without blocking or consuming the request.
	Done() bool
}

// ReserveTag consumes one communicator sequence number and returns it as a
// tag. SPMD programs calling it in the same order on every rank obtain
// matching tags without coordination — the hook for hand-rolled exchanges,
// nonblocking (post Irecvs, pack, Isend) like the k-mer exchange or blocking
// like the grid's Figure 2 exchange.
func ReserveTag(c *Comm) int64 {
	return collTag(c)
}

// SetBlocking selects how the requests this rank posts from now on make
// progress — true: inside Wait, on the rank goroutine; false (a new world's
// mode): in the background from post time — and returns the previous mode, so
// `defer c.SetBlocking(c.SetBlocking(on))` scopes a mode to a function. The
// mode belongs to the world rank, not to the communicator: every Comm of the
// rank sees it, and only the rank's own goroutine may call this.
func (c *Comm) SetBlocking(on bool) (prev bool) {
	mode := &c.world.blocking[c.group[c.rank]]
	prev, *mode = *mode, on
	return prev
}

// asyncView returns a copy of the communicator whose sends count into the
// overlap counters — unless the rank is blocking, whose traffic is all
// exposed. The copy shares world/context/group (so it matches messages with
// the original) but must never touch the sequence counter: background
// goroutines use explicit tags only.
func (c *Comm) asyncView() *Comm {
	v := *c
	v.async = !c.world.blocking[c.group[c.rank]]
	return &v
}

// reqState is the shared completion/misuse machinery of the request types
// whose work runs in a background goroutine or, on a blocking rank, inside
// Wait. The armed channel defers the matcher's deadlock watchdog until Wait
// actually blocks.
type reqState struct {
	done     chan struct{}
	armed    chan struct{}
	waited   atomic.Bool
	panicked any    // panic value transferred from a background goroutine
	deferred func() // blocking rank: the posted work, run by wait
	// Optional observability handles (nil when tracing/metrics are off; set
	// at post time): lane records an exposed-wait span
	// when Wait actually blocks, gauge tracks in-flight posted requests.
	lane  *obs.Lane
	gauge *obs.Gauge
}

func newReqState() reqState {
	return reqState{done: make(chan struct{}), armed: make(chan struct{})}
}

// Done reports completion without consuming the request.
func (r *reqState) Done() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// wait arms the watchdog, completes the request — by running its deferred
// work on a blocking rank, by blocking for the background goroutine otherwise —
// enforces single-use, and re-raises any panic captured in the background
// goroutine on the caller's goroutine.
func (r *reqState) wait(kind string) {
	if !r.waited.CompareAndSwap(false, true) {
		panic("mpi: " + kind + " request waited twice (requests are single-use)")
	}
	close(r.armed)
	// A request still in flight when Wait starts is exposed (non-overlapped)
	// communication time; on a blocking rank that is every request.
	exposed := r.lane != nil && !r.Done()
	st := r.lane.Start()
	if r.deferred != nil {
		r.deferred()
		close(r.done)
	} else {
		<-r.done
	}
	if exposed {
		r.lane.Span(0, "mpi", "wait:"+kind, st)
	}
	if r.panicked != nil {
		panic(r.panicked)
	}
}

// post hands fn, the request's work, to whatever makes progress on this
// rank: a goroutine that captures fn's panic for re-raise at Wait and closes
// done when it returns, or, on a blocking rank, Wait itself.
func (c *Comm) post(r *reqState, fn func()) {
	w := c.group[c.rank]
	if o := c.world.obs; o != nil {
		r.lane, r.gauge = o.lanes[w], o.reqGauge[w]
	}
	if c.world.blocking[w] {
		r.deferred = fn
		return
	}
	r.gauge.Add(1) // nil-safe; mpi.inflight_reqs
	go func() {
		defer close(r.done)
		defer r.gauge.Add(-1)
		defer func() {
			if v := recover(); v != nil {
				r.panicked = v
			}
		}()
		fn()
	}()
}

// SendRequest is the handle of an Isend. The simulator's sends are buffered,
// so it is complete at creation; Wait only enforces the single-use contract.
type SendRequest struct {
	reqState
}

// Wait completes the send request (a no-op beyond misuse checking).
func (r *SendRequest) Wait() { r.wait("send") }

// Isend transmits data to dst under tag without blocking and counts the
// traffic as overlappable. The payload is encoded at post time, so the
// caller keeps ownership of data. The returned request is already complete
// (buffered semantics) but must still be waited exactly once.
func Isend[T any](c *Comm, dst int, tag int64, data []T) *SendRequest {
	frame := wire.Marshal(data)
	c.asyncView().sendRaw(dst, tag, frame, wire.DataLen(frame))
	r := &SendRequest{reqState: newReqState()}
	close(r.done)
	return r
}

// RecvRequest is the handle of an Irecv; Wait returns the received payload.
type RecvRequest[T any] struct {
	reqState
	val []T
}

// Wait blocks until the matching send arrives and returns its payload.
func (r *RecvRequest[T]) Wait() { r.wait("recv") }

// Value returns the received payload; valid only after Wait.
func (r *RecvRequest[T]) Value() []T { return r.val }

// WaitValue combines Wait and Value.
func (r *RecvRequest[T]) WaitValue() []T {
	r.Wait()
	return r.val
}

// Irecv posts a receive for the matching Send/Isend and returns immediately.
// A background matcher drains the message as soon as it arrives, so the
// transfer progresses while the rank computes.
func Irecv[T any](c *Comm, src int, tag int64) *RecvRequest[T] {
	r := &RecvRequest[T]{reqState: newReqState()}
	c.post(&r.reqState, func() {
		r.val = mustUnmarshal[T](c.recvRawArmed(src, tag, r.armed))
	})
	return r
}

// IrecvChunked posts a receive for a buffer sent with SendChunked.
func IrecvChunked[T any](c *Comm, src int, tag int64) *RecvRequest[T] {
	r := &RecvRequest[T]{reqState: newReqState()}
	c.post(&r.reqState, func() {
		r.val = recvChunked[T](c, src, tag, r.armed)
	})
	return r
}

// BcastRequest is the handle of an IBcast; Wait returns the broadcast frame.
type BcastRequest struct {
	reqState
	frame []byte
}

// Wait blocks until this rank's part of the broadcast tree (receive from
// parent, forwards to children) has completed.
func (r *BcastRequest) Wait() { r.wait("bcast") }

// WaitFrame waits and returns the broadcast frame.
func (r *BcastRequest) WaitFrame() []byte {
	r.Wait()
	return r.frame
}

// IBcast starts a nonblocking broadcast of root's encoded frame (collective:
// every rank of c must post it, in the same program order as any other
// collective on c; frame is ignored off the root). The binomial tree —
// identical to the blocking Bcast, so message and byte counters match between
// modes, each message charged the frame's wire.DataLen — runs in the
// background; several IBcasts may be in flight at once, which is how the SUMMA
// loop prefetches round r+1's panels while multiplying round r. Every rank,
// the root included, gets back a frame it decodes itself. In process the
// ranks of the tree share the root's frame by reference, so the frame and
// every view of it are read-only (see package wire).
func IBcast(c *Comm, root int, frame []byte) *BcastRequest {
	tag := collTag(c) // consumed on the caller goroutine, like every collective
	ac := c.asyncView()
	if c.rank != root {
		frame = nil
	}
	r := &BcastRequest{reqState: newReqState()}
	c.post(&r.reqState, func() {
		r.frame = bcastFrames(ac, root, tag, frame, r.armed)
	})
	return r
}

// AlltoallvRequest is the handle of an IAlltoallv; Wait returns the per-rank
// received slices. The pairwise receives drain in the background from post
// time; Wait itself collects on the calling goroutine, arming each posted
// receive's watchdog only then.
type AlltoallvRequest[T any] struct {
	waited atomic.Bool
	recvs  []*RecvRequest[T] // nil at self index
	out    [][]T
}

// Wait blocks until every pairwise receive has completed.
func (r *AlltoallvRequest[T]) Wait() {
	if !r.waited.CompareAndSwap(false, true) {
		panic("mpi: alltoallv request waited twice (requests are single-use)")
	}
	for src, rr := range r.recvs {
		if rr != nil {
			r.out[src] = rr.WaitValue()
		}
	}
}

// Done reports whether every pairwise receive has completed, without
// blocking or consuming the request.
func (r *AlltoallvRequest[T]) Done() bool {
	for _, rr := range r.recvs {
		if rr != nil && !rr.Done() {
			return false
		}
	}
	return true
}

// Value returns the received per-rank slices; valid only after Wait.
func (r *AlltoallvRequest[T]) Value() [][]T { return r.out }

// WaitValue combines Wait and Value.
func (r *AlltoallvRequest[T]) WaitValue() [][]T {
	r.Wait()
	return r.out
}

// iAlltoallv is the shared body of the nonblocking all-to-alls: post all
// receives first, then send (sends are buffered, so they complete at post
// time); the request finishes when the posted receives drain. self is the
// caller's own part of the result; sendTo ships the part for dst, chunked,
// on the async view it is handed.
func iAlltoallv[T any](c *Comm, self []T, sendTo func(ac *Comm, dst int, tag int64)) *AlltoallvRequest[T] {
	tag := collTag(c)
	p := c.Size()
	r := &AlltoallvRequest[T]{recvs: make([]*RecvRequest[T], p), out: make([][]T, p)}
	// Post receives before packing/sending anything — the classic overlap
	// schedule: remote data can land while this rank is still sending.
	for off := 1; off < p; off++ {
		src := (c.rank - off + p) % p
		r.recvs[src] = IrecvChunked[T](c, src, tag)
	}
	r.out[c.rank] = self
	ac := c.asyncView()
	for off := 1; off < p; off++ {
		sendTo(ac, (c.rank+off)%p, tag)
	}
	return r
}

// IAlltoallv starts a nonblocking Alltoallv (collective). All sends complete
// at post time; Wait returns when every pairwise receive has drained. Wire
// shape, counters and contract (chunked messages, send buffers given away)
// are the blocking Alltoallv's.
func IAlltoallv[T any](c *Comm, send [][]T) *AlltoallvRequest[T] {
	checkParts(c, len(send), "IAlltoallv")
	return iAlltoallv(c, send[c.rank], func(ac *Comm, dst int, tag int64) {
		SendChunked(ac, dst, tag, send[dst])
	})
}

// IAlltoallvBytes is the nonblocking AlltoallvBytes: IAlltoallv[byte] over
// buffers the caller packed in place (see ByteBuf).
func IAlltoallvBytes(c *Comm, send []ByteBuf) *AlltoallvRequest[byte] {
	checkParts(c, len(send), "IAlltoallvBytes")
	return iAlltoallv(c, send[c.rank].payload, func(ac *Comm, dst int, tag int64) {
		sendChunkedBuf(ac, dst, tag, send[dst])
	})
}
