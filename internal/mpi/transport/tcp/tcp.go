// Package tcp is the socket transport: it carries the mpi wire frames
// between ranks running as separate OS processes — on one host (`cmd/elba
// -transport proc -np P` re-execs one worker per rank) or across machines
// (`cmd/elba -transport tcp -join host:port -rank R -np P` joins a
// standalone rendezvous) — executing the same SPMD program as the
// in-process simulator on a real process mesh.
//
// Topology and lifecycle:
//
//   - A rendezvous server (ServeRendezvous, run by the launching process or
//     standalone via `cmd/elba -serve-rendezvous`) accepts one registration
//     per rank — {rank, advertised listen address} — and, once all P have
//     arrived, broadcasts the full address table to each. Registrations
//     that advertise an unspecified host (":port", "0.0.0.0:port") are
//     rewritten to the source address the server observed, so a worker
//     behind several interfaces still publishes a routable address.
//   - Join(rdv, self, p, cfg) registers with the rendezvous, then wires the
//     mesh: rank i dials every rank j < i and accepts from every j > i, so
//     each unordered pair shares exactly one TCP connection. A one-byte-ish
//     uvarint handshake identifies the dialer. By default the mesh listener
//     binds every interface and advertises the address this host used to
//     reach the rendezvous — routable from any machine that can reach the
//     rendezvous — with JoinConfig overriding bind and advertise addresses
//     for multi-homed hosts.
//   - Messages are length-prefixed frames ([kind][tag][len][payload]); a
//     reader goroutine per peer drains them into the rank's mailbox
//     immediately, which both implements the buffered-send contract (a
//     sender never blocks on the receiver matching) and keeps kernel socket
//     buffers empty.
//   - Close performs a BYE handshake: send BYE to every peer, wait for
//     theirs, then close. TCP ordering guarantees a peer's BYE arrives after
//     all its data, so closing can never discard delivered-but-unread
//     frames (an early close with unread data would RST the connection).
//   - Abort broadcasts an ABORT frame carrying the reason and closes each
//     connection once its reader has taken what already arrived (bounded),
//     so a frame written before a failure stays matchable even when another
//     peer's abort tears this endpoint down first. A peer's reader surfaces
//     the abort —
//     or a broken connection, which is how an outright-killed rank appears,
//     to the reader or to a Send whose write breaks first — through the
//     failure handler as a *transport.RankFailure naming the dead rank; that
//     is how one process's death or cancellation unwinds the whole job with
//     a diagnosable error.
//
// NewLocal builds a full P-endpoint mesh over loopback inside one process —
// the configuration the conformance and equivalence suites use to run the
// real socket path without forking. NewLocalHosts does the same with one
// listen host per rank (127.0.0.1, 127.0.0.2, …), simulating a multi-host
// deployment on distinct loopback interfaces.
package tcp

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi/transport"
)

// Frame kinds on a mesh connection.
const (
	frameMsg   = 0x01 // payload is an mpi wire frame
	frameAbort = 0x02 // payload is the abort reason; sender is dead
	frameBye   = 0x03 // orderly shutdown; no further frames follow
	framePing  = 0x04 // heartbeat probe, sent only on a write-idle connection
	framePong  = 0x05 // heartbeat reply; arrival alone proves the peer lives
)

// maxFrameLen bounds a single frame payload (matches the MPI 2^31-1 count
// limit the chunking layer enforces, plus codec header slack).
const maxFrameLen = 1<<31 - 1 + 64

// maxAbortReason bounds an ABORT frame's reason text. Abort truncates what it
// sends to this length, so only a peer that breaks the protocol exceeds it.
const maxAbortReason = 64 << 10

// readChunk is the step in which the reader takes a payload off the socket;
// each step is read under a fresh heartbeat deadline. A payload buffer is at
// most payloadGrowth times the bytes that have arrived, or payloadGrowth
// steps (see readPayload). minPayloadCap is the least capacity a payload
// buffer is allocated with: Go places a pointer-free allocation under 16
// bytes at an address aligned only to its size, and an aligned wire frame
// (package wire) needs its base 8-byte aligned.
const (
	readChunk     = 1 << 20
	payloadGrowth = 8
	minPayloadCap = 16
)

// dialTimeout is the default bound on connection attempts (rendezvous and
// mesh); JoinConfig.DialTimeout overrides it per Join.
const dialTimeout = 30 * time.Second

// closeDrain bounds how long Close waits for a peer's BYE before closing
// anyway (a peer that crashed will never say goodbye).
const closeDrain = 10 * time.Second

// failDrain bounds how long a failing side waits for a connection's reader
// to take what the peer said last: a Send whose write broke, before it
// reports the failure, and Abort, before it closes the connection.
const failDrain = 2 * time.Second

// Heartbeat defaults (JoinConfig.HeartbeatInterval/-Timeout override; a
// negative value disables). A connection that is write-idle for the interval
// carries a PING; a reader that receives nothing — data, PING or PONG — for
// the timeout declares the peer failed. The timeout spans several intervals
// so one delayed probe never kills a healthy job.
const (
	defaultHeartbeatInterval = 2 * time.Second
	defaultHeartbeatTimeout  = 15 * time.Second
)

// Endpoint is one rank's socket endpoint. It implements
// transport.Transport, transport.QueueInstrumented and
// transport.PendingDumper.
type Endpoint struct {
	self, size int
	box        *transport.Mailbox
	peers      []*peerConn // indexed by rank; nil at self

	hbInterval time.Duration // ping a write-idle connection this often (≤0: never)
	hbTimeout  time.Duration // declare a silent peer dead after this long (≤0: never)
	hbStop     chan struct{} // closes the heartbeat goroutine; nil when disabled
	hbOnce     sync.Once

	mu      sync.Mutex
	failFn  func(error)
	failErr error
	failed  bool
	closing bool
}

// peerConn is the single connection shared with one peer rank.
type peerConn struct {
	nc        net.Conn
	wmu       sync.Mutex
	done      chan struct{} // closed when the reader exits (BYE, abort or error)
	lastWrite atomic.Int64  // unix nanos of the last frame written; heartbeats ping only idle conns
}

func (p *peerConn) writeFrame(kind byte, tag int64, payload []byte) error {
	var hdr [13]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(tag))
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	p.wmu.Lock()
	defer p.wmu.Unlock()
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(p.nc)
	p.lastWrite.Store(time.Now().UnixNano())
	return err
}

// Self returns the rank this endpoint serves.
func (e *Endpoint) Self() int { return e.self }

// Size returns the job's rank count.
func (e *Endpoint) Size() int { return e.size }

// Send delivers m to dst: self-sends loop straight into the mailbox,
// everything else is one frame on the pair's connection. The write can
// block only on the kernel buffer — the peer's reader always drains — so
// buffered-send semantics hold.
func (e *Endpoint) Send(dst int, m transport.Message) error {
	if dst < 0 || dst >= e.size {
		return fmt.Errorf("tcp: dst rank %d out of range [0,%d)", dst, e.size)
	}
	if dst == e.self {
		e.box.Push(m)
		return nil
	}
	pc := e.peers[dst]
	if pc == nil {
		return fmt.Errorf("tcp: no connection to rank %d", dst)
	}
	if err := pc.writeFrame(frameMsg, m.Tag, m.Payload); err != nil {
		// A broken write is how this side learns that dst is gone when it
		// writes before its reader has looked. dst either died or tore down
		// after relaying someone else's death, and in that case its ABORT
		// frame, naming the rank that actually died, was written before it
		// closed and is already queued on this connection. So let the reader
		// finish first — a broken connection ends it promptly, the bound is
		// a backstop — and then report the write as the reader reports a
		// broken read: attributed to dst, first cause wins. Either way the
		// abort this rank relays names the dead rank, never a messenger.
		t := time.NewTimer(failDrain)
		select {
		case <-pc.done:
		case <-t.C:
		}
		t.Stop()
		rf := &transport.RankFailure{Rank: dst, Err: fmt.Errorf("send from rank %d broke: %w", e.self, err)}
		e.fail(rf)
		return rf
	}
	return nil
}

// Match removes the oldest queued message matching (src, tag); see
// transport.Transport.
func (e *Endpoint) Match(src int, tag int64) (transport.Message, <-chan struct{}, bool) {
	return e.box.Take(src, tag)
}

// SetFailureHandler registers fn; if the endpoint already failed (readers
// start at Join time, possibly before the handler exists), fn fires
// immediately with the buffered cause.
func (e *Endpoint) SetFailureHandler(fn func(error)) {
	e.mu.Lock()
	e.failFn = fn
	var pending error
	if e.failed {
		pending = e.failErr
	}
	e.mu.Unlock()
	if pending != nil && fn != nil {
		fn(pending)
	}
}

// SetQueueDepthHook implements transport.QueueInstrumented.
func (e *Endpoint) SetQueueDepthHook(fn func(int64)) { e.box.SetDepthHook(fn) }

// PendingDump implements transport.PendingDumper.
func (e *Endpoint) PendingDump() string { return e.box.PendingDump() }

// fail reports the first endpoint failure to the handler (at most once).
// Failures during an orderly Close are expected teardown noise and dropped.
func (e *Endpoint) fail(err error) {
	e.mu.Lock()
	if e.failed || e.closing {
		e.mu.Unlock()
		return
	}
	e.failed = true
	e.failErr = err
	fn := e.failFn
	e.mu.Unlock()
	if fn != nil {
		fn(err)
	}
}

// Abort tears the endpoint down: every live peer gets an ABORT frame
// carrying reason (best effort, bounded by a write deadline), then each
// connection closes once its reader has taken the frames already on it (see
// closeAfterReaders; a peer's reader closes its side on the ABORT, so this
// is prompt unless the peer is wedged). origin rides the frame's
// otherwise-unused tag field (-1 = this endpoint's own rank), so a cascading
// abort keeps the failure attributed to the rank that actually died — peers
// racing the origin's own abort against a relayed one see the same rank
// either way.
func (e *Endpoint) Abort(origin int, reason string) {
	e.mu.Lock()
	already := e.closing
	e.closing = true
	e.mu.Unlock()
	if already {
		return
	}
	e.stopHeartbeat()
	if origin < 0 {
		origin = e.self
	}
	payload := []byte(reason[:min(len(reason), maxAbortReason)])
	for _, pc := range e.peers {
		if pc == nil {
			continue
		}
		// A connection whose deadline cannot even be set is already dead or
		// wedged: writing the abort frame to it could block teardown, so skip
		// the notification and just close — the peer's reader will surface
		// the broken connection instead.
		if err := pc.nc.SetWriteDeadline(time.Now().Add(2 * time.Second)); err != nil {
			pc.nc.Close()
			continue
		}
		pc.writeFrame(frameAbort, int64(origin), payload)
	}
	e.closeAfterReaders(failDrain)
}

// Close drains politely: BYE to every peer, wait (bounded) for each peer's
// reader to see their BYE — by TCP ordering all their data precedes it —
// then close the sockets. Idempotent; concurrent with Abort it yields.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	already := e.closing
	e.closing = true
	e.mu.Unlock()
	if already {
		return nil
	}
	e.stopHeartbeat()
	for _, pc := range e.peers {
		if pc != nil {
			pc.writeFrame(frameBye, 0, nil)
		}
	}
	e.closeAfterReaders(closeDrain)
	return nil
}

// closeAfterReaders closes every connection once its reader has exited, or
// once drain has passed: a reader exits on the peer's BYE or ABORT or when
// the connection ends, having pushed every message frame before it into the
// mailbox. Closing a socket under a reader that has not drained it would
// discard frames already delivered to this host.
func (e *Endpoint) closeAfterReaders(drain time.Duration) {
	deadline := time.Now().Add(drain)
	for _, pc := range e.peers {
		if pc == nil {
			continue
		}
		select {
		case <-pc.done:
		default:
			// One timer per peer, anchored to a common deadline: a shared
			// time.After channel would fire once and leave every later wait
			// blocking forever.
			t := time.NewTimer(time.Until(deadline))
			select {
			case <-pc.done:
			case <-t.C:
			}
			t.Stop()
		}
		pc.nc.Close()
	}
}

// readFailure classifies a reader's error: a read-deadline expiry means the
// peer went silent past the heartbeat timeout — the signature of a hung
// process or an unreachable host, which never closes the connection — while
// anything else is the connection itself breaking (a killed process resets
// or closes its sockets).
func (e *Endpoint) readFailure(err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return fmt.Errorf("missed heartbeats for %v (process hung or host unreachable)", e.hbTimeout)
	}
	return fmt.Errorf("connection to rank %d broke: %w", e.self, err)
}

// readFullAlive fills buf from the peer's buffered reader, refreshing the
// connection's read deadline per chunk when heartbeat detection is on: a
// large frame that is still flowing never trips the timeout, a stalled one
// does.
func (e *Endpoint) readFullAlive(pc *peerConn, br *bufio.Reader, buf []byte) error {
	for len(buf) > 0 {
		e.keepAlive(pc)
		n := min(len(buf), readChunk)
		if _, err := io.ReadFull(br, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
	}
	return nil
}

// readPayload reads an n-byte frame payload. The header's length is the
// peer's claim, not its bytes, so the buffer grows only as they arrive. A
// payload above one read step commits nothing until its first bytes have
// filled the reader's buffer, and the buffer then never exceeds
// payloadGrowth times what has arrived, or payloadGrowth steps. A header
// announcing a huge frame that never comes costs no payload memory; an honest
// frame of up to payloadGrowth steps is allocated once, at its size (at
// least minPayloadCap).
func (e *Endpoint) readPayload(pc *peerConn, br *bufio.Reader, n int) ([]byte, error) {
	if n > readChunk {
		e.keepAlive(pc)
		if _, err := br.Peek(br.Size()); err != nil {
			return nil, err
		}
	}
	var buf []byte
	for got := 0; got < n; got = len(buf) {
		size := min(n, payloadGrowth*max(got, readChunk))
		next := make([]byte, size, max(size, minPayloadCap))
		copy(next, buf)
		buf = next
		if err := e.readFullAlive(pc, br, buf[got:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// frameError refuses a frame header before any of its payload is read, or
// returns nil for a header the protocol allows: a payload within
// maxFrameLen, none on the control frames, and a bounded abort reason.
func (e *Endpoint) frameError(kind byte, n uint32) error {
	switch {
	case uint64(n) > maxFrameLen:
		return fmt.Errorf("sent rank %d an oversized frame (%d bytes)", e.self, n)
	case kind == frameMsg:
		return nil
	case kind == frameAbort:
		if n > maxAbortReason {
			return fmt.Errorf("sent rank %d an abort reason of %d bytes (limit %d)", e.self, n, maxAbortReason)
		}
		return nil
	case kind == framePing || kind == framePong || kind == frameBye:
		if n > 0 {
			return fmt.Errorf("sent rank %d a control frame 0x%02x with a %d-byte payload", e.self, kind, n)
		}
		return nil
	default:
		return fmt.Errorf("sent rank %d an unknown frame kind 0x%02x", e.self, kind)
	}
}

// keepAlive gives the next read the heartbeat timeout, when detection is on.
func (e *Endpoint) keepAlive(pc *peerConn) {
	if e.hbTimeout > 0 {
		pc.nc.SetReadDeadline(time.Now().Add(e.hbTimeout))
	}
}

// heartbeat pings every write-idle peer connection each interval, so a rank
// that is alive but has nothing to say still proves it: the peer's reader
// treats any arriving frame — data, PING or PONG — as liveness. Runs until
// Close or Abort stops it; write errors are left for the peer's reader to
// surface.
func (e *Endpoint) heartbeat() {
	t := time.NewTicker(e.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-e.hbStop:
			return
		case <-t.C:
		}
		idle := time.Now().Add(-e.hbInterval).UnixNano()
		for _, pc := range e.peers {
			if pc == nil {
				continue
			}
			select {
			case <-pc.done:
				continue
			default:
			}
			if pc.lastWrite.Load() > idle {
				continue // recent traffic already proved this rank alive
			}
			pc.writeFrame(framePing, 0, nil)
		}
	}
}

// stopHeartbeat shuts the heartbeat goroutine down (idempotent; no-op when
// heartbeats are disabled).
func (e *Endpoint) stopHeartbeat() {
	e.hbOnce.Do(func() {
		if e.hbStop != nil {
			close(e.hbStop)
		}
	})
}

// reader drains one peer connection into the mailbox until BYE, ABORT, a
// connection error, or — with heartbeat detection on — a silence longer than
// the heartbeat timeout.
func (e *Endpoint) reader(peer int, pc *peerConn) {
	defer close(pc.done)
	br := bufio.NewReaderSize(pc.nc, 1<<16)
	var hdr [13]byte
	for {
		if err := e.readFullAlive(pc, br, hdr[:]); err != nil {
			e.fail(&transport.RankFailure{Rank: peer, Err: e.readFailure(err)})
			return
		}
		kind := hdr[0]
		tag := int64(binary.LittleEndian.Uint64(hdr[1:9]))
		n := binary.LittleEndian.Uint32(hdr[9:13])
		if err := e.frameError(kind, n); err != nil {
			e.fail(&transport.RankFailure{Rank: peer, Err: err})
			return
		}
		payload, err := e.readPayload(pc, br, int(n))
		if err != nil {
			e.fail(&transport.RankFailure{Rank: peer, Err: e.readFailure(err)})
			return
		}
		switch kind {
		case frameMsg:
			e.box.Push(transport.Message{Src: peer, Tag: tag, Payload: payload})
		case framePing:
			// Reply so a one-sided conversation stays provably alive in both
			// directions; the reply errors, if any, surface on this reader.
			pc.writeFrame(framePong, 0, nil)
		case framePong:
			// Arrival alone refreshed the read deadline; nothing to do.
		case frameBye:
			return
		case frameAbort:
			// The tag field names the rank the abort is attributed to; a
			// relayed abort arrives from a messenger peer but still blames
			// the rank that died first.
			rank := peer
			if tag >= 0 && tag < int64(e.size) {
				rank = int(tag)
			}
			if rank != peer {
				e.fail(&transport.RankFailure{Rank: rank, Err: fmt.Errorf("aborted the job (relayed by rank %d): %s", peer, payload)})
			} else {
				e.fail(&transport.RankFailure{Rank: rank, Err: fmt.Errorf("aborted the job: %s", payload)})
			}
			// Nothing follows an ABORT. Closing this side ends the peer's
			// reader, which its Abort waits for before closing.
			pc.nc.Close()
			return
		}
	}
}

// ServeRendezvous accepts exactly p rank registrations on ln and replies to
// each with the complete rank→address table, then closes everything. Run it
// in the launching process (or a goroutine of a single-process mesh) before
// workers call Join.
//
// The listener is open to anyone who can reach it, so a connection is a rank
// only once its registration parses: each is read on its own goroutine under
// the dial deadline, and one that fails to parse, names a rank outside
// [0, p) or repeats a registered rank is logged and closed while the
// rendezvous keeps accepting. A stranger — a port scan, an HTTP probe, a
// silent client — neither ends the bootstrap nor holds up the ranks queued
// behind it. Only an accept error ends it early. Every connection it
// accepted, a registered rank's included, is closed before it returns, and
// so every goroutine it started has ended.
func ServeRendezvous(ln net.Listener, p int) error {
	type reg struct {
		conn net.Conn
		rank int
		addr string
		err  error
	}
	arrived := make(chan reg)
	acceptErr := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel() // closes every connection accepted, registered or not
	defer ln.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				context.AfterFunc(ctx, func() { conn.Close() })
				conn.SetDeadline(time.Now().Add(dialTimeout))
				r := reg{conn: conn}
				r.rank, r.addr, r.err = readRegistration(bufio.NewReader(conn), p)
				select {
				case arrived <- r:
				case <-ctx.Done():
				}
			}()
		}
	}()
	conns := make([]net.Conn, p)
	addrs := make([]string, p)
	for seen := 0; seen < p; {
		select {
		case err := <-acceptErr:
			return fmt.Errorf("tcp: rendezvous accept: %w", err)
		case r := <-arrived:
			if r.err == nil && conns[r.rank] != nil {
				r.err = fmt.Errorf("rank %d is already registered", r.rank)
			}
			if r.err != nil {
				log.Printf("tcp: rendezvous: dropped connection from %s: %v", r.conn.RemoteAddr(), r.err)
				r.conn.Close()
				continue
			}
			// A worker advertising an unspecified host (":port",
			// "0.0.0.0:port") gets it rewritten to the source IP this
			// registration arrived from — the one address the server knows
			// is routable back to the worker.
			conns[r.rank] = r.conn
			addrs[r.rank] = rewriteUnspecified(r.addr, r.conn.RemoteAddr())
			seen++
		}
	}
	var first error
	for _, c := range conns {
		bw := bufio.NewWriter(c)
		for _, a := range addrs {
			writeString(bw, a)
		}
		if err := bw.Flush(); err != nil && first == nil {
			first = fmt.Errorf("tcp: rendezvous reply: %w", err)
		}
	}
	return first
}

// readRegistration parses one rendezvous registration — the rank as a
// uvarint, then the advertised address as a length-prefixed string — for a
// p-rank world. The rank is checked before the address is read, so a stranger
// whose first byte is no rank is refused without waiting for more.
func readRegistration(br *bufio.Reader, p int) (rank int, addr string, err error) {
	r, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, "", fmt.Errorf("registration: %w", err)
	}
	if r >= uint64(p) {
		return 0, "", fmt.Errorf("registration names rank %d of a %d-rank world", r, p)
	}
	if addr, err = readString(br); err != nil {
		return 0, "", fmt.Errorf("registration of rank %d: %w", r, err)
	}
	return int(r), addr, nil
}

// rewriteUnspecified replaces an unspecified or empty host in addr with the
// IP of from, keeping the port. Addresses with a concrete host pass through.
func rewriteUnspecified(addr string, from net.Addr) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if host != "" {
		if ip := net.ParseIP(host); ip == nil || !ip.IsUnspecified() {
			return addr
		}
	}
	ra, ok := from.(*net.TCPAddr)
	if !ok {
		return addr
	}
	return net.JoinHostPort(ra.IP.String(), port)
}

// JoinConfig controls how Join binds and advertises one rank's mesh
// listener. The zero value suits most deployments: bind every interface on
// an ephemeral port and advertise the address this host used to reach the
// rendezvous.
type JoinConfig struct {
	// Listen is the mesh listener's bind address ("host:port"; empty means
	// ":0" — every interface, ephemeral port). Bind a specific interface on
	// a multi-homed host to pin mesh traffic to one network.
	Listen string
	// Advertise is the address published to peers through the rendezvous
	// ("host:port"). Empty derives a routable one: a listener bound to a
	// concrete IP advertises it; otherwise the IP of this host's route to
	// the rendezvous is used, and if even that is unspecified the rendezvous
	// server substitutes the source address it observed. Set it explicitly
	// only when peers must dial through an address this host cannot see
	// (NAT, port forwarding).
	Advertise string
	// DialTimeout bounds every connection attempt this Join makes — the
	// rendezvous and each mesh peer — and the total time Join keeps
	// retrying a rendezvous that is not answering yet (0 = 30s). Workers
	// may start before the rendezvous: Join redials with exponential
	// backoff and jitter until the budget runs out, so launch order does
	// not matter within it.
	DialTimeout time.Duration
	// HeartbeatInterval is how often a write-idle peer connection carries a
	// PING proving this rank alive (0 = 2s; negative disables sending
	// pings — peers with detection on will then declare this rank dead
	// during long silences).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a peer may stay completely silent — no
	// data, PING or PONG — before its connection is declared dead and the
	// failure handler fires a RankFailure (0 = 15s; negative disables
	// detection, restoring block-forever reads). A hung-but-not-exited rank
	// never closes its sockets; this timeout is what surfaces it. Must
	// exceed the interval, ideally by several multiples.
	HeartbeatTimeout time.Duration
}

// dialBudget returns the effective connection-attempt budget.
func (c JoinConfig) dialBudget() time.Duration {
	if c.DialTimeout == 0 {
		return dialTimeout
	}
	return c.DialTimeout
}

// heartbeats returns the effective (interval, timeout) pair; a non-positive
// member means that half is disabled.
func (c JoinConfig) heartbeats() (time.Duration, time.Duration) {
	interval, timeout := c.HeartbeatInterval, c.HeartbeatTimeout
	if interval == 0 {
		interval = defaultHeartbeatInterval
	}
	if timeout == 0 {
		timeout = defaultHeartbeatTimeout
	}
	return interval, timeout
}

// Join builds rank self's endpoint of a p-rank job: register a routable
// listen address with the rendezvous at rdv, receive the address table, and
// wire one connection per peer (dial lower ranks, accept higher ones). cfg
// controls bind/advertise addresses and heartbeats (zero value: defaults).
// It is the entry point of a multi-host worker (`cmd/elba -transport tcp
// -join host:port -rank R`) and of the proc launcher's workers.
func Join(rdv string, self, p int, cfg JoinConfig) (*Endpoint, error) {
	return join(context.Background(), rdv, self, p, cfg)
}

// join is Join that gives up when ctx is done: the dials stop and the mesh
// listener closes. A rank waiting for the rendezvous table is released by
// the rendezvous closing its connection.
func join(ctx context.Context, rdv string, self, p int, cfg JoinConfig) (*Endpoint, error) {
	if self < 0 || self >= p {
		return nil, fmt.Errorf("tcp: rank %d out of range [0,%d)", self, p)
	}
	dial := cfg.dialBudget()
	hbInterval, hbTimeout := cfg.heartbeats()
	if hbInterval > 0 && hbTimeout > 0 && hbTimeout <= hbInterval {
		return nil, fmt.Errorf("tcp: heartbeat timeout %v must exceed the interval %v", hbTimeout, hbInterval)
	}
	listen := cfg.Listen
	if listen == "" {
		listen = ":0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", listen, err)
	}
	defer context.AfterFunc(ctx, func() { ln.Close() })()
	addrs, err := rendezvous(ctx, rdv, self, p, cfg.Advertise, ln, dial)
	if err != nil {
		ln.Close()
		return nil, err
	}
	e := &Endpoint{
		self:       self,
		size:       p,
		box:        transport.NewMailbox(),
		peers:      make([]*peerConn, p),
		hbInterval: hbInterval,
		hbTimeout:  hbTimeout,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	// Accept the p-1-self higher ranks; each identifies itself with a
	// uvarint handshake.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < p-1-self; n++ {
			conn, err := ln.Accept()
			if err != nil {
				errs <- fmt.Errorf("tcp: rank %d mesh accept: %w", self, err)
				return
			}
			conn.SetDeadline(time.Now().Add(dial))
			// Read the handshake unbuffered: a buffered reader could swallow
			// the first bytes of the frames the dialer sends right after it.
			peer, err := binary.ReadUvarint(byteReader{conn})
			if err != nil || int(peer) <= self || int(peer) >= p || e.peers[peer] != nil {
				conn.Close()
				errs <- fmt.Errorf("tcp: rank %d mesh handshake from peer %d failed: %v", self, peer, err)
				return
			}
			conn.SetDeadline(time.Time{})
			e.peers[peer] = &peerConn{nc: conn, done: make(chan struct{})}
		}
	}()
	// Dial the lower ranks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		d := net.Dialer{Timeout: dial}
		for peer := 0; peer < self; peer++ {
			conn, err := d.DialContext(ctx, "tcp", addrs[peer])
			if err != nil {
				errs <- fmt.Errorf("tcp: rank %d dial rank %d: %w", self, peer, err)
				return
			}
			var hs [binary.MaxVarintLen64]byte
			if _, err := conn.Write(hs[:binary.PutUvarint(hs[:], uint64(self))]); err != nil {
				conn.Close()
				errs <- fmt.Errorf("tcp: rank %d handshake to rank %d: %w", self, peer, err)
				return
			}
			e.peers[peer] = &peerConn{nc: conn, done: make(chan struct{})}
		}
	}()
	wg.Wait()
	ln.Close()
	select {
	case err := <-errs:
		for _, pc := range e.peers {
			if pc != nil {
				pc.nc.Close()
			}
		}
		return nil, err
	default:
	}
	for peer, pc := range e.peers {
		if pc != nil {
			go e.reader(peer, pc)
		}
	}
	if e.hbInterval > 0 {
		e.hbStop = make(chan struct{})
		go e.heartbeat()
	}
	return e, nil
}

// rendezvous registers this rank's advertised address and returns the full
// address table. An empty advertise derives one from the mesh listener and
// the route to the rendezvous.
func rendezvous(ctx context.Context, rdv string, self, p int, advertise string, ln net.Listener, dial time.Duration) ([]string, error) {
	conn, err := dialRetry(ctx, rdv, dial)
	if err != nil {
		return nil, fmt.Errorf("tcp: dial rendezvous %s: %w", rdv, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(dial))
	if advertise == "" {
		advertise = advertisedAddr(conn, ln)
	}
	bw := bufio.NewWriter(conn)
	var hs [binary.MaxVarintLen64]byte
	bw.Write(hs[:binary.PutUvarint(hs[:], uint64(self))])
	writeString(bw, advertise)
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("tcp: rendezvous register: %w", err)
	}
	br := bufio.NewReader(conn)
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i], err = readString(br)
		if err != nil {
			return nil, fmt.Errorf("tcp: rendezvous table: %w", err)
		}
	}
	return addrs, nil
}

// dialRetry dials addr until it answers, the timeout budget is spent or ctx
// is done, backing off exponentially with jitter between attempts. Workers
// routinely start before the rendezvous is listening — a supervised relaunch
// even guarantees it, racing fresh workers against a fresh rendezvous — so a
// refused connection inside the budget is a bootstrap-order race, not an
// error. So is a dial that connected to itself (dropSelfConnected).
func dialRetry(ctx context.Context, addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	d := net.Dialer{Timeout: timeout}
	backoff := 50 * time.Millisecond
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			if !dropSelfConnected(conn) {
				return conn, nil
			}
			err = fmt.Errorf("dial %s connected to itself", addr)
		}
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		if backoff < 2*time.Second {
			backoff *= 2
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, err
		}
		select {
		case <-time.After(min(sleep, remain)):
		case <-ctx.Done():
			return nil, err
		}
	}
}

// dropSelfConnected closes conn and reports true when it is connected to
// itself. A dial to a local port nobody listens on can be given that very
// port as its source and complete as a TCP simultaneous open with itself;
// the socket then holds the port the rendezvous is about to bind, and a plain
// close would keep holding it in TIME_WAIT. Closing with linger 0 resets it,
// so the port is free the moment this returns.
func dropSelfConnected(conn net.Conn) bool {
	if conn.LocalAddr().String() != conn.RemoteAddr().String() {
		return false
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
	return true
}

// advertisedAddr derives the address peers should dial: a listener bound to
// a concrete IP advertises it; otherwise the IP this host used to reach the
// rendezvous (loopback for a local bootstrap, the outbound interface for a
// remote one) joined with the listener's port. If even the route IP is
// unspecified the host is left empty for the rendezvous server to rewrite.
func advertisedAddr(rdvConn net.Conn, ln net.Listener) string {
	la, ok := ln.Addr().(*net.TCPAddr)
	if !ok {
		return ln.Addr().String()
	}
	port := strconv.Itoa(la.Port)
	if len(la.IP) > 0 && !la.IP.IsUnspecified() {
		return net.JoinHostPort(la.IP.String(), port)
	}
	if ra, ok := rdvConn.LocalAddr().(*net.TCPAddr); ok && len(ra.IP) > 0 && !ra.IP.IsUnspecified() {
		return net.JoinHostPort(ra.IP.String(), port)
	}
	return net.JoinHostPort("", port)
}

// NewLocal wires a complete p-rank loopback mesh inside one process: a
// throwaway rendezvous plus p Joins. It exercises the full socket path —
// frames, readers, BYE/ABORT — and is what the conformance and equivalence
// suites run; close the endpoints (or the owning mpi.World) when done.
func NewLocal(p int) ([]transport.Transport, error) {
	hosts := make([]string, p)
	for i := range hosts {
		hosts[i] = "127.0.0.1"
	}
	return NewLocalHosts(hosts)
}

// NewLocalHosts wires a len(hosts)-rank mesh inside one process where rank
// i's listener binds hosts[i] on an ephemeral port — distinct loopback
// interfaces (127.0.0.1, 127.0.0.2, …) simulate a multi-host deployment, so
// the equivalence and fault-injection suites can exercise cross-"host"
// routing and advertise derivation without real machines.
//
// The first rank that fails to join ends the setup: its error is returned,
// the rendezvous listener closes, and the other ranks stop waiting on a
// bootstrap that can no longer complete. Nothing started here outlives the
// call.
func NewLocalHosts(hosts []string) ([]transport.Transport, error) {
	p := len(hosts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcp: rendezvous listen: %w", err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	served := make(chan struct{})
	go func() {
		defer close(served)
		ServeRendezvous(ln, p) // a failure here reaches the ranks as theirs
	}()
	stopServe := context.AfterFunc(ctx, func() { ln.Close() })
	eps := make([]transport.Transport, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := join(ctx, ln.Addr().String(), r, p,
				JoinConfig{Listen: net.JoinHostPort(hosts[r], "0")})
			if err != nil {
				cancel(fmt.Errorf("tcp: local mesh rank %d: %w", r, err)) // only the first cause is kept
				return
			}
			eps[r] = ep
		}(r)
	}
	wg.Wait()
	stopServe()
	<-served
	if err := context.Cause(ctx); err != nil {
		for _, ep := range eps {
			if ep != nil {
				ep.Abort(-1, "mesh setup failed")
			}
		}
		return nil, err
	}
	return eps, nil
}

func writeString(bw *bufio.Writer, s string) {
	var b [binary.MaxVarintLen64]byte
	bw.Write(b[:binary.PutUvarint(b[:], uint64(len(s)))])
	bw.WriteString(s)
}

// byteReader adapts a net.Conn for binary.ReadUvarint without buffering
// ahead.
type byteReader struct{ r io.Reader }

func (b byteReader) ReadByte() (byte, error) {
	var p [1]byte
	_, err := io.ReadFull(b.r, p[:])
	return p[0], err
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("string too long (%d)", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}
