// Package mpi implements a distributed-memory message-passing runtime with
// MPI-like semantics over pluggable transports.
//
// The ELBA paper targets MPI on thousands of ranks. Go has no MPI ecosystem,
// so this package provides the runtime itself, split along two seams:
//
//   - Below, a transport.Transport (package mpi/transport) moves tagged byte
//     messages between ranks with src/tag matching. The reference transport
//     delivers through in-process mailboxes — every rank a goroutine, as the
//     original simulator did; transport/tcp delivers over sockets so ranks
//     can be separate OS processes (cmd/elba -transport proc).
//   - Between, a wire codec (package mpi/wire) encodes every payload —
//     packed k-mer triples, COO panels, read sequences, count vectors — into
//     self-describing frames that decode byte-identically in any process.
//
// Above the seams live the MPI semantics, shared by all transports:
// point-to-point Send/Recv with buffered sends and (src, tag) matching, the
// usual collectives (Barrier, Bcast, Gatherv, Scatterv, Allgather(v),
// Alltoallv, Reduce, Allreduce, ReduceScatter, Exscan) built on
// point-to-point exchange exactly as a small MPI implementation would,
// communicator Split (the row/column communicators of the 2D process grid), a
// nonblocking layer (Isend/Irecv/Request, IBcast, IAlltoallv — see
// nonblocking.go) in which every communicating kernel is written, with
// blocking execution a per-rank mode of its requests (SetBlocking),
// cooperative cancellation (see cancel.go), and a recv deadlock watchdog.
//
// Every collective keeps one contract: each part goes through the chunked
// protocol (SendChunked, RecvChunked), and every broadcast frame is chunked
// at each hop, so no message exceeds MaxMessageBytes; and passing send
// buffers gives them away — the result's own part is the caller's send
// buffer itself. A part of a fixed-width type travels as an aligned frame
// (package wire): a dense part packed in a Buf is sent as the Buf itself,
// and a dense part received is a view of its frame, so each exchanged
// element is copied at most once. A part of a variable-width type has no
// chunk size of its own: it is encoded to one frame (wire.Marshal), whose
// bytes are chunked. The gathers are the all-to-alls' pairwise loop and the
// reductions one binomial tree (ReduceSlice).
//
// Because every payload crosses as a frame its sender no longer holds, a
// rank never observes memory another rank still uses — algorithmic errors
// (reading a vector entry the rank does not own) fail in tests the same way
// they would on real distributed hardware — and the traffic counters charge
// the actual wire bytes, identically on every transport. The runtime keeps
// per-rank totals, the nonblocking (overlappable) subset, and
// per-communicator in-flight gauges; the cross-transport conformance suite
// (conformance_test.go) pins byte/message equality between the in-process
// and TCP transports.
//
// Worlds are built with NewWorld(p) (in-process: all p ranks local) or
// NewWorldTransport(endpoints...) (general: one endpoint per local rank; a
// multi-process job passes exactly one). World.Run executes a rank function
// on every local rank; in a multi-process world each process runs its own
// rank and the SPMD program must be identical everywhere, like real MPI.
package mpi

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi/transport"
	"repro/internal/mpi/wire"
	"repro/internal/obs"
)

// DefaultRecvTimeout bounds how long a Recv waits before the runtime declares
// a deadlock. A multi-minute wait always means a mismatched send/receive
// pattern; panicking with context beats hanging.
var DefaultRecvTimeout = 120 * time.Second

// MaxMessageBytes mirrors the MPI count limit of 2^31-1 that the paper's
// sequence-communication step must work around. Sends whose encoded payload
// is larger than this panic, forcing callers to chunk exactly as ELBA does.
// Tests lower it to exercise the chunking path at small scale.
var MaxMessageBytes = int64(1<<31 - 1)

// Communicator context ids. The world communicator and the control plane use
// reserved even ids; Split derives odd ids by hashing, so a split
// communicator can never collide with either.
const (
	ctxWorld   uint64 = 1
	ctxControl uint64 = 2
)

// World owns the transport endpoints and counters for one machine's share of
// a P-rank job. In an in-process world every rank is local; in a
// multi-process world each OS process holds the endpoint(s) of its own
// rank(s) and the rest of eps is nil.
type World struct {
	size  int
	local []int                 // sorted world ranks served by this process
	eps   []transport.Transport // indexed by world rank; nil for remote ranks
	stats []RankStats
	// blocking is each world rank's request mode (see Comm.SetBlocking); an
	// entry is read and written by its rank's goroutine only.
	blocking []bool
	// recvTimeout is read atomically (nanoseconds): background matcher
	// goroutines consult it while tests adjust it.
	recvTimeout int64
	// Cancellation (see cancel.go): cancelCh is closed exactly once, after
	// cancelErr is set, so readers woken by the close always see the cause.
	cancelMu  sync.Mutex
	cancelCh  chan struct{}
	cancelErr error
	// obs holds the optional tracing/metrics handles (see obs.go). Written
	// only by SetObs before ranks start; read without synchronization after.
	obs *worldObs
}

// RankStats counts traffic originated by one rank. The Async counters are
// the subset of the totals that was sent through the nonblocking layer
// (Isend and the collectives built on it) — the traffic a rank could have
// overlapped with computation; package trace turns their deltas into the
// comm_overlap/comm_exposed split. Bytes are encoded wire bytes (frame
// payloads, headers excluded), so counters are equal across transports.
type RankStats struct {
	MsgsSent   int64
	BytesSent  int64
	MsgsAsync  int64
	BytesAsync int64
	_          [4]int64 // pad to a cache line to avoid false sharing
}

// NewWorld creates an in-process world with p ranks — the reference
// configuration: every rank a goroutine, delivery through shared mailboxes.
func NewWorld(p int) *World {
	return NewWorldTransport(transport.NewInproc(p)...)
}

// NewWorldTransport creates a world over explicit transport endpoints, one
// per rank served by this process. All endpoints must report the same job
// size and distinct ranks. Endpoint failures (a peer process aborting, a
// connection dying) cancel the world, unwinding every local rank.
func NewWorldTransport(eps ...transport.Transport) *World {
	if len(eps) == 0 {
		panic("mpi: NewWorldTransport needs at least one endpoint")
	}
	size := eps[0].Size()
	if size <= 0 {
		panic(fmt.Sprintf("mpi: world size %d must be positive", size))
	}
	w := &World{
		size:     size,
		eps:      make([]transport.Transport, size),
		stats:    make([]RankStats, size),
		blocking: make([]bool, size),
		cancelCh: make(chan struct{}),
	}
	atomic.StoreInt64(&w.recvTimeout, int64(DefaultRecvTimeout))
	for _, ep := range eps {
		if ep.Size() != size {
			panic(fmt.Sprintf("mpi: endpoint sizes disagree (%d vs %d)", ep.Size(), size))
		}
		r := ep.Self()
		if r < 0 || r >= size {
			panic(fmt.Sprintf("mpi: endpoint rank %d out of range [0,%d)", r, size))
		}
		if w.eps[r] != nil {
			panic(fmt.Sprintf("mpi: duplicate endpoint for rank %d", r))
		}
		w.eps[r] = ep
		w.local = append(w.local, r)
	}
	sort.Ints(w.local)
	// Handlers go on once the world is complete: a failure may fire one at
	// once, and Cancel reads every local endpoint.
	for _, ep := range eps {
		ep.SetFailureHandler(func(err error) {
			w.Cancel(fmt.Errorf("mpi: transport failure: %w", err))
		})
	}
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Local returns the world ranks served by this process, ascending.
func (w *World) Local() []int {
	out := make([]int, len(w.local))
	copy(out, w.local)
	return out
}

// Distributed reports whether some ranks of the world live in other
// processes — in which case per-world aggregates (TotalBytes, Stats) cover
// only the local ranks and cross-rank sums must go through collectives.
func (w *World) Distributed() bool { return len(w.local) < w.size }

// Close releases the world's transport endpoints after a polite drain. Call
// it when a multi-process or socket-backed world is done; in-process worlds
// have nothing to release.
func (w *World) Close() error {
	if cause := w.Err(); cause != nil {
		// A cancelled world aborts instead of draining: Cancel broadcasts the
		// abort on a background goroutine, and a polite BYE issued here could
		// overtake it — telling peers this rank finished cleanly and leaving
		// them blocked instead of failed. Abort is idempotent, so whichever
		// broadcast runs first wins.
		origin := failureOrigin(cause)
		for _, r := range w.local {
			w.eps[r].Abort(origin, cause.Error())
		}
		return nil
	}
	// Close all local endpoints concurrently: the BYE drain of each waits
	// for its peers' BYEs, so in a world with several local endpoints a
	// sequential loop would stall every close behind the next one's.
	errs := make([]error, len(w.local))
	var wg sync.WaitGroup
	for i, r := range w.local {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			errs[i] = w.eps[r].Close()
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SetRecvTimeout overrides the deadlock watchdog for this world.
func (w *World) SetRecvTimeout(d time.Duration) {
	atomic.StoreInt64(&w.recvTimeout, int64(d))
}

func (w *World) timeout() time.Duration {
	return time.Duration(atomic.LoadInt64(&w.recvTimeout))
}

// Stats returns a snapshot of per-rank traffic counters (local ranks only in
// a distributed world; remote entries are zero).
func (w *World) Stats() []RankStats {
	out := make([]RankStats, w.size)
	for i := range out {
		out[i].MsgsSent = atomic.LoadInt64(&w.stats[i].MsgsSent)
		out[i].BytesSent = atomic.LoadInt64(&w.stats[i].BytesSent)
		out[i].MsgsAsync = atomic.LoadInt64(&w.stats[i].MsgsAsync)
		out[i].BytesAsync = atomic.LoadInt64(&w.stats[i].BytesAsync)
	}
	return out
}

// TotalBytes returns the total bytes sent by all local ranks so far.
func (w *World) TotalBytes() int64 {
	var t int64
	for i := range w.stats {
		t += atomic.LoadInt64(&w.stats[i].BytesSent)
	}
	return t
}

// TotalMsgs returns the total messages sent by all local ranks so far.
func (w *World) TotalMsgs() int64 {
	var t int64
	for i := range w.stats {
		t += atomic.LoadInt64(&w.stats[i].MsgsSent)
	}
	return t
}

// Comm returns the world communicator for the given rank. Each rank goroutine
// must use its own Comm; Comms are not shared between goroutines. In a
// distributed world a Comm for a remote rank can be constructed (the engine
// keeps symmetric per-rank state) but panics on first communication.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.size))
	}
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	return &Comm{world: w, ctx: ctxWorld, rank: rank, group: group}
}

// ControlComm returns an out-of-band world communicator for the given rank
// whose traffic is invisible to every counter, gauge, histogram and trace —
// the engine's control plane for aggregating per-stage statistics across
// processes without perturbing the statistics themselves. It uses a reserved
// context, so control collectives never cross-match application traffic.
// Like Comm, each rank goroutine needs its own, and the same control
// communicator must be reused across calls so sequence numbers stay aligned.
func (w *World) ControlComm(rank int) *Comm {
	c := w.Comm(rank)
	c.ctx = ctxControl
	c.nocount = true
	return c
}

// RankError reports a panic raised inside one rank of a Run.
type RankError struct {
	Rank  int
	Value any
	Stack string
}

func (e *RankError) Error() string {
	return fmt.Sprintf("mpi: rank %d panicked: %v\n%s", e.Rank, e.Value, e.Stack)
}

// Run executes fn on p in-process ranks and waits for all of them. Panics in
// rank goroutines are recovered and returned as errors (first one wins).
func Run(p int, fn func(*Comm)) error {
	w := NewWorld(p)
	return w.Run(fn)
}

// Run executes fn on every local rank of the world and waits for completion.
// In-process worlds run all P ranks as goroutines; a multi-process world
// runs only this process's ranks, and every process must call Run with the
// same SPMD program. A rank that panics cancels the world with its
// *RankError as the cause, which Run returns.
func (w *World) Run(fn func(*Comm)) error {
	errs := make(chan *RankError, len(w.local))
	done := make(chan struct{})
	var pending atomic.Int64
	pending.Store(int64(len(w.local)))
	for _, r := range w.local {
		c := w.Comm(r)
		go func(rank int, c *Comm) {
			defer func() {
				if v := recover(); v != nil {
					// Cancellation unwinds ranks by design; only genuine
					// panics become rank errors.
					if _, cancelled := v.(cancelPanic); !cancelled {
						// A dead rank fails the world at once, so peers
						// blocked on it unwind instead of waiting out the
						// watchdog.
						re := &RankError{Rank: rank, Value: v, Stack: string(debug.Stack())}
						w.Cancel(re)
						errs <- re
					}
				}
				if pending.Add(-1) == 0 {
					close(done)
				}
			}()
			fn(c)
		}(r, c)
	}
	<-done
	if err := w.Err(); err != nil {
		return err
	}
	select {
	case e := <-errs:
		return e
	default:
		return nil
	}
}

// Comm is a communicator: a group of ranks with a private context id so
// concurrent collectives on different communicators never interfere.
type Comm struct {
	world *World
	ctx   uint64
	rank  int   // rank within this communicator
	group []int // world rank of each communicator rank
	seq   uint64
	// async marks sends issued through the nonblocking layer of a rank not in
	// blocking mode, counting them into the BytesAsync/MsgsAsync overlap
	// counters. Set only on the private views Isend & friends derive via
	// asyncView; user-held Comms are sync.
	async bool
	// nocount makes the communicator invisible to all counters, gauges,
	// histograms and trace instants, symmetrically on send and receive — the
	// control plane (ControlComm) must not perturb what it measures.
	nocount bool
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// World returns the underlying world (shared state; read-only use).
func (c *Comm) World() *World { return c.world }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(rank int) int { return c.group[rank] }

// BytesSent returns the bytes this rank has sent so far (any communicator).
func (c *Comm) BytesSent() int64 {
	return atomic.LoadInt64(&c.world.stats[c.group[c.rank]].BytesSent)
}

// MsgsSent returns the messages this rank has sent so far.
func (c *Comm) MsgsSent() int64 {
	return atomic.LoadInt64(&c.world.stats[c.group[c.rank]].MsgsSent)
}

// BytesAsync returns the bytes this rank has sent through the nonblocking
// layer so far (a subset of BytesSent).
func (c *Comm) BytesAsync() int64 {
	return atomic.LoadInt64(&c.world.stats[c.group[c.rank]].BytesAsync)
}

// MsgsAsync returns the messages this rank has sent through the nonblocking
// layer so far (a subset of MsgsSent).
func (c *Comm) MsgsAsync() int64 {
	return atomic.LoadInt64(&c.world.stats[c.group[c.rank]].MsgsAsync)
}

// nextSeq reserves a fresh operation sequence number. SPMD programs call
// collectives in the same order on every rank, so sequence numbers line up
// across the communicator without coordination (the MPI matching rule).
func (c *Comm) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// endpoint returns this rank's transport endpoint; a Comm constructed for a
// rank another process serves has none and must not communicate.
func (c *Comm) endpoint() transport.Transport {
	ep := c.world.eps[c.group[c.rank]]
	if ep == nil {
		panic(fmt.Sprintf("mpi: rank %d (world %d) is not served by this process", c.rank, c.group[c.rank]))
	}
	return ep
}

// wireTag folds the communicator context into the transport-level tag:
// transports match on (src world rank, tag) only, so distinct communicators
// must occupy distinct tag spaces. World-communicator tags pass through
// unchanged (readable in diagnostics); other contexts mix context and tag
// through splitmix64. Same (ctx, tag) always maps to the same wire tag, so
// per-pair FIFO order survives; distinct pairs colliding is as improbable as
// a Split context-id collision always was.
func wireTag(ctx uint64, tag int64) int64 {
	if ctx == ctxWorld {
		return tag
	}
	return int64(mix64(ctx, uint64(tag)))
}

// mix64 is a splitmix64-style mixer: deterministic across processes (unlike
// a seeded maphash), so communicator identities derived from it agree
// between the OS processes of a multi-process world.
func mix64(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z ^= b
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sendRaw transmits an encoded frame to dst (communicator rank) under tag.
// dataBytes is the frame's element-payload size (wire.DataLen), which is
// what every counter charges. The frame must not be mutated after the call.
func (c *Comm) sendRaw(dst int, tag int64, frame []byte, dataBytes int64) {
	if dataBytes > MaxMessageBytes {
		panic(fmt.Sprintf("mpi: message of %d bytes exceeds MaxMessageBytes=%d (chunk the send as ELBA does)", dataBytes, MaxMessageBytes))
	}
	wdst := c.group[dst]
	wsrc := c.group[c.rank]
	ep := c.endpoint()
	if !c.nocount {
		atomic.AddInt64(&c.world.stats[wsrc].MsgsSent, 1)
		atomic.AddInt64(&c.world.stats[wsrc].BytesSent, dataBytes)
		if c.async {
			atomic.AddInt64(&c.world.stats[wsrc].MsgsAsync, 1)
			atomic.AddInt64(&c.world.stats[wsrc].BytesAsync, dataBytes)
		}
		if o := c.world.obs; o != nil {
			o.msgBytes[wsrc].Observe(dataBytes)
			if c.async {
				o.msgBytesAsync[wsrc].Observe(dataBytes)
			}
			if l := o.lanes[wsrc]; l != nil {
				async := int64(0)
				if c.async {
					async = 1
				}
				l.Instant(0, "mpi", "send",
					obs.Arg{K: "dst", V: int64(wdst)}, obs.Arg{K: "tag", V: tag},
					obs.Arg{K: "bytes", V: dataBytes}, obs.Arg{K: "async", V: async})
			}
		}
	}
	err := ep.Send(wdst, transport.Message{Src: wsrc, Tag: wireTag(c.ctx, tag), Payload: frame})
	if err != nil {
		c.world.Cancel(fmt.Errorf("mpi: send to rank %d failed: %w", wdst, err))
		panic(cancelPanic{c.world.cancelErr})
	}
}

// armedNow is pre-closed: blocking receives arm their watchdog immediately.
var armedNow = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// recvRaw blocks until a message from src (communicator rank) with tag
// arrives and returns its frame, subject to the world deadlock watchdog.
func (c *Comm) recvRaw(src int, tag int64) []byte {
	return c.recvRawArmed(src, tag, armedNow)
}

// recvRawArmed is recvRaw with a deferred deadlock watchdog: the deadline
// starts only once armed is closed. Posted nonblocking receives pass their
// Wait signal, so a receive parked behind a long compute phase (whose
// matching send has legitimately not been posted yet) is never declared
// deadlocked — only a rank actually blocked in Wait/Recv trips the timer.
func (c *Comm) recvRawArmed(src int, tag int64, armed <-chan struct{}) []byte {
	ep := c.endpoint()
	wsrc := c.group[src]
	wtag := wireTag(c.ctx, tag)
	// Blocked-receive tracing: only direct blocking receives (armed ==
	// armedNow) record a span, and only if the first queue scan misses —
	// posted matchers report their exposed time via Wait instead.
	var lane *obs.Lane
	if o := c.world.obs; o != nil && !c.nocount && armed == (<-chan struct{})(armedNow) {
		lane = o.lanes[c.group[c.rank]]
	}
	blockStart := int64(-1)
	var deadline time.Time
	armedCh := armed // set to nil once consumed; a nil case blocks forever
	select {
	case <-armedCh:
		armedCh = nil
		deadline = time.Now().Add(c.world.timeout())
	default:
	}
	for {
		c.world.checkCancel()
		msg, gen, ok := ep.Match(wsrc, wtag)
		if ok {
			if blockStart >= 0 {
				lane.Span(0, "mpi", "recv.wait", blockStart,
					obs.Arg{K: "src", V: int64(wsrc)}, obs.Arg{K: "tag", V: tag},
					obs.Arg{K: "bytes", V: wire.DataLen(msg.Payload)})
			}
			return msg.Payload
		}
		if lane != nil && blockStart < 0 {
			blockStart = lane.Start()
		}
		var timer *time.Timer
		var expire <-chan time.Time
		if c.world.timeout() > 0 && armedCh == nil {
			remain := time.Until(deadline)
			if remain <= 0 {
				dump := ""
				if pd, ok := ep.(transport.PendingDumper); ok {
					dump = pd.PendingDump()
				}
				panic(fmt.Sprintf("mpi: rank %d (world %d) deadlocked waiting for ctx=%d src=%d tag=%d; pending:%s",
					c.rank, c.group[c.rank], c.ctx, src, tag, dump))
			}
			timer = time.NewTimer(remain)
			expire = timer.C
		}
		select {
		case <-gen:
			if timer != nil {
				timer.Stop()
			}
		case <-armedCh:
			// Wait just started: the deadline runs from here.
			armedCh = nil
			deadline = time.Now().Add(c.world.timeout())
		case <-expire:
			// Loop re-checks the queue, then panics via the deadline branch.
		case <-c.world.cancelCh:
			if timer != nil {
				timer.Stop()
			}
			panic(cancelPanic{c.world.cancelErr})
		}
	}
}

// Split partitions the communicator by color; ranks passing the same color
// form a new communicator ordered by (key, old rank). It must be called by
// every rank of c (a collective), like MPI_Comm_split.
func (c *Comm) Split(color, key int) *Comm {
	type ck struct{ Color, Key, Rank int }
	all := Allgather(c, ck{Color: color, Key: key, Rank: c.rank})
	var members []ck
	for _, e := range all {
		if e.Color == color {
			members = append(members, e)
		}
	}
	// Insertion sort by (key, rank): deterministic on every rank.
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && (members[j-1].Key > members[j].Key ||
			(members[j-1].Key == members[j].Key && members[j-1].Rank > members[j].Rank)); j-- {
			members[j-1], members[j] = members[j], members[j-1]
		}
	}
	group := make([]int, len(members))
	newRank := -1
	for i, m := range members {
		group[i] = c.group[m.Rank]
		if m.Rank == c.rank {
			newRank = i
		}
	}
	// A context id all members derive identically: a deterministic mix of
	// parent context, split sequence number and color. It must be identical
	// across OS processes, so no process-local hash seeds; odd ids never
	// collide with the reserved world/control contexts.
	ctx := mix64(mix64(c.ctx, c.seq), uint64(int64(color))) | 1
	return &Comm{world: c.world, ctx: ctx, rank: newRank, group: group, nocount: c.nocount}
}

// mustUnmarshal decodes a received frame; a codec error here means sender
// and receiver disagree about the element type — a program bug on the order
// of an MPI datatype mismatch, so it panics.
func mustUnmarshal[T any](frame []byte) []T {
	v, err := wire.Unmarshal[T](frame)
	if err != nil {
		panic(fmt.Sprintf("mpi: recv type mismatch: %v", err))
	}
	return v
}

func mustUnmarshalOne[T any](frame []byte) T {
	v, err := wire.UnmarshalOne[T](frame)
	if err != nil {
		panic(fmt.Sprintf("mpi: recv type mismatch: %v", err))
	}
	return v
}

// Send transmits data to dst under tag, encoded as a wire frame. Buffered
// semantics: it never blocks on the receiver, and the caller keeps ownership
// of data (the frame is an independent encoding).
func Send[T any](c *Comm, dst int, tag int64, data []T) {
	frame := wire.Marshal(data)
	c.sendRaw(dst, tag, frame, wire.DataLen(frame))
}

// Recv blocks until the matching Send arrives and returns its decoded
// payload, which never aliases the sender's memory.
func Recv[T any](c *Comm, src int, tag int64) []T {
	return mustUnmarshal[T](c.recvRaw(src, tag))
}

// SendOne transmits a single value.
func SendOne[T any](c *Comm, dst int, tag int64, v T) {
	frame := wire.MarshalOne(v)
	c.sendRaw(dst, tag, frame, wire.DataLen(frame))
}

// RecvOne receives a single value.
func RecvOne[T any](c *Comm, src int, tag int64) T {
	return mustUnmarshalOne[T](c.recvRaw(src, tag))
}

// SendChunked sends data under the MaxMessageBytes limit, mirroring how ELBA
// works around the MPI 2^31-1 count limit for read-sequence buffers. Every
// message of the stream is an aligned frame of elements at their wire width
// (wire.MarshalAligned), so data is copied once, into the frames. A buffer
// that fits is one such frame; a larger one is split: its element count goes
// first, as a one-value int64 frame, then the chunks, every one but the last
// full. Chunks are sized by the codec's wire width of T, so T must be
// fixed-width and not zero-width (an aligned payload carries its count as its
// length): another T (a string, a slice, a struct holding one, struct{})
// panics naming the type before anything is sent.
func SendChunked[T any](c *Comm, dst int, tag int64, data []T) {
	w := int64(wire.Width[T]())
	if w <= 0 {
		panic(fmt.Sprintf("mpi: SendChunked of %s: an element of variable or zero width has no chunk size", reflect.TypeFor[T]()))
	}
	maxElems := max(int(MaxMessageBytes/w), 1)
	if len(data) <= maxElems {
		sendAligned(c, dst, tag, data)
		return
	}
	SendOne(c, dst, tag, int64(len(data)))
	for off := 0; off < len(data); off += maxElems {
		sendAligned(c, dst, tag, data[off:min(off+maxElems, len(data))])
	}
}

// sendAligned sends one message of a chunked stream: data as an aligned
// frame.
func sendAligned[T any](c *Comm, dst int, tag int64, data []T) {
	frame := wire.MarshalAligned(data)
	c.sendRaw(dst, tag, frame, wire.DataLen(frame))
}

// sendPart sends one part of a collective, chunked: a variable-width T,
// which has no chunk size, as the bytes of its frame. That frame is encoded
// once, straight into the aligned byte frame that carries it when it fits one
// message (the frame SendChunked of Marshal(part) would build, so the same
// bytes and messages), and chunked from there otherwise. Receivers take
// either with RecvChunked.
func sendPart[T any](c *Comm, dst int, tag int64, part []T) {
	if wire.Width[T]() < 0 {
		b := NewByteBuf(wire.MarshalLen(part))
		wire.MarshalInto(b.Elems(), part)
		SendBuf(c, dst, tag, b)
		return
	}
	SendChunked(c, dst, tag, part)
}

// Buf is a typed send buffer for the chunked exchanges (SendBuf,
// AlltoallvBufs, IAlltoallv).
// A Buf from NewBuf of a dense T (wire.Dense: memory layout is wire layout)
// is laid out as its own aligned wire frame: the sender fills Elems in place,
// and the exchange hands the frame to the transport as it stands, with no
// encoding copy, so a receiver in the same process reads the sender's memory
// itself. Passing such a Buf to an exchange gives it away — the frame's one
// owner is then its receiver — so the caller must not read or write it
// afterwards. Any other Buf (of a T that is not dense, or from BufOf) is a
// plain slice, encoded into a frame at send, as SendChunked does.
type Buf[T any] struct {
	frame []byte // the aligned frame elems lies in; nil when encoded at send
	elems []T
}

// NewBuf returns a send buffer with room for exactly n elements. An empty
// one allocates nothing; it is encoded at send like a slice.
func NewBuf[T any](n int) Buf[T] {
	if n == 0 || !wire.Dense[T]() {
		return Buf[T]{elems: make([]T, n)}
	}
	frame, payload := wire.NewAlignedFrame[T](n * wire.Width[T]())
	elems, err := wire.Elems[T](payload, n)
	if err != nil {
		panic(fmt.Sprintf("mpi: NewBuf: %v", err))
	}
	return Buf[T]{frame: frame, elems: elems}
}

// BufOf returns a Buf over s that is encoded at send: the exchange copies s
// once into its frame and leaves it to the caller.
func BufOf[T any](s []T) Buf[T] { return Buf[T]{elems: s} }

// Elems is the n-element region to fill.
func (b Buf[T]) Elems() []T { return b.elems }

// ByteBuf is the byte send buffer of the sequence exchange.
type ByteBuf = Buf[byte]

// NewByteBuf returns a byte send buffer with room for exactly n bytes.
func NewByteBuf(n int) ByteBuf { return NewBuf[byte](n) }

// SendBuf is SendChunked for a Buf, which it gives away — same messages,
// same bytes: a Buf that is its own frame and fits one message travels as
// that frame; any other is chunked, and so copied into frames, like a slice.
func SendBuf[T any](c *Comm, dst int, tag int64, b Buf[T]) {
	if n := wire.DataLen(b.frame); b.frame != nil && n <= MaxMessageBytes {
		c.sendRaw(dst, tag, b.frame, n)
		return
	}
	SendChunked(c, dst, tag, b.elems)
}

// RecvChunked receives a buffer sent with SendChunked or SendBuf, or a part a
// collective sent as the chunked bytes of its frame (a variable-width T,
// decoded by wire.UnmarshalOwned: every []byte in it is a view of the
// received bytes, the rest fresh memory). A buffer that fit one
// message comes back with no copy for a dense T: a view of the received
// frame, which this receiver alone owns and may write (a point-to-point frame
// is dropped by its sender at Send and matched once; see DESIGN.md, "one
// owner per frame"). A T that is not dense decodes into fresh memory.
func RecvChunked[T any](c *Comm, src int, tag int64) []T {
	return recvChunked[T](c, src, tag, armedNow)
}

// recvChunked is the body RecvChunked and IrecvChunked share. The first frame
// is either the whole buffer or, as its kind tells, the element count of a
// split one.
func recvChunked[T any](c *Comm, src int, tag int64, armed <-chan struct{}) []T {
	if wire.Width[T]() < 0 {
		v, err := wire.UnmarshalOwned[T](recvChunked[byte](c, src, tag, armed))
		if err != nil {
			panic(fmt.Sprintf("mpi: recv type mismatch: %v", err))
		}
		return v
	}
	frame := c.recvRawArmed(src, tag, armed)
	if !wire.IsOne(frame) {
		return mustDecodePart[T](frame)
	}
	return recvSplit[T](c, src, tag, frame, armed)
}

// mustDecodePart decodes one message of a chunked stream, an aligned frame
// (wire.AlignedElems). Like mustUnmarshal it panics on a type mismatch.
func mustDecodePart[T any](frame []byte) []T {
	v, err := wire.AlignedElems[T](frame)
	if err != nil {
		panic(fmt.Sprintf("mpi: recv type mismatch: %v", err))
	}
	return v
}

// recvSplit receives the chunks of a split buffer whose count frame has
// arrived. That count comes from the peer, so nothing is allocated from it:
// the result grows as chunks arrive, and a count that is not positive, an
// empty chunk (a stream that stopped short) or a chunk overrunning the count
// fails the world with src named as the failed rank.
func recvSplit[T any](c *Comm, src int, tag int64, count []byte, armed <-chan struct{}) []T {
	n := mustUnmarshalOne[int64](count)
	if n <= 0 {
		c.failPeer(src, fmt.Errorf("mpi: chunked stream (tag %d) announces %d elements", tag, n))
	}
	var out []T
	for got := int64(0); got < n; got = int64(len(out)) {
		chunk := mustDecodePart[T](c.recvRawArmed(src, tag, armed))
		if len(chunk) == 0 || got+int64(len(chunk)) > n {
			c.failPeer(src, fmt.Errorf("mpi: chunked stream (tag %d) sent a chunk of %d elements with %d of %d outstanding",
				tag, len(chunk), n-got, n))
		}
		if got == 0 {
			out = chunk
		} else {
			out = append(out, chunk...)
		}
	}
	return out
}

// failPeer cancels the world over a protocol violation by src (communicator
// rank), attributed to it like a transport-reported failure, and unwinds the
// calling rank.
func (c *Comm) failPeer(src int, err error) {
	c.world.Cancel(&transport.RankFailure{Rank: c.group[src], Err: err})
	panic(cancelPanic{c.world.Err()})
}
