package tcp

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/mpi/transport"
)

// mesh builds a local p-rank loopback mesh and registers cleanup.
func mesh(t *testing.T, p int) []transport.Transport {
	t.Helper()
	eps, err := NewLocal(p)
	if err != nil {
		t.Fatalf("NewLocal(%d): %v", p, err)
	}
	t.Cleanup(func() {
		var wg sync.WaitGroup
		for _, ep := range eps {
			wg.Add(1)
			go func(ep transport.Transport) { defer wg.Done(); ep.Close() }(ep)
		}
		wg.Wait()
	})
	return eps
}

// take blocks on scan-then-wait until a matching message arrives.
func take(t *testing.T, ep transport.Transport, src int, tag int64) transport.Message {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, notify, ok := ep.Match(src, tag)
		if ok {
			return m
		}
		select {
		case <-notify:
		case <-time.After(time.Until(deadline)):
			t.Fatalf("no message from %d tag %d", src, tag)
		}
	}
}

func TestMeshDeliversAllPairs(t *testing.T) {
	const p = 4
	eps := mesh(t, p)
	for i := 0; i < p; i++ {
		if eps[i].Self() != i || eps[i].Size() != p {
			t.Fatalf("endpoint %d misconfigured: self=%d size=%d", i, eps[i].Self(), eps[i].Size())
		}
	}
	// Every ordered pair, including self-sends.
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			payload := []byte{byte(src), byte(dst)}
			err := eps[src].Send(dst, transport.Message{Src: src, Tag: int64(10*src + dst), Payload: payload})
			if err != nil {
				t.Fatalf("send %d->%d: %v", src, dst, err)
			}
		}
	}
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			m := take(t, eps[dst], src, int64(10*src+dst))
			if m.Src != src || m.Payload[0] != byte(src) || m.Payload[1] != byte(dst) {
				t.Fatalf("message %d->%d corrupted: %+v", src, dst, m)
			}
		}
	}
}

func TestFramesPreserveOrderAndContent(t *testing.T) {
	eps := mesh(t, 2)
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			buf := make([]byte, 1+i%97)
			for j := range buf {
				buf[j] = byte(i + j)
			}
			eps[0].Send(1, transport.Message{Src: 0, Tag: 42, Payload: buf})
		}
	}()
	for i := 0; i < n; i++ {
		m := take(t, eps[1], 0, 42)
		if len(m.Payload) != 1+i%97 {
			t.Fatalf("frame %d: len %d, want %d (ordering broken?)", i, len(m.Payload), 1+i%97)
		}
		for j, b := range m.Payload {
			if b != byte(i+j) {
				t.Fatalf("frame %d byte %d corrupted", i, j)
			}
		}
	}
}

func TestAbortReachesPeerFailureHandlers(t *testing.T) {
	eps := mesh(t, 3)
	fails := make(chan error, 2)
	eps[1].SetFailureHandler(func(err error) { fails <- err })
	eps[2].SetFailureHandler(func(err error) { fails <- err })
	eps[0].Abort(-1, "deliberate test abort")
	for i := 0; i < 2; i++ {
		select {
		case err := <-fails:
			if !strings.Contains(err.Error(), "deliberate test abort") {
				t.Fatalf("failure lacks abort reason: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("peer failure handler never fired after abort")
		}
	}
}

// goneConn is the connection to a peer that is gone: every write fails, and
// reads find last — what the peer wrote before it closed — and then EOF, but
// only once a write has failed. So the test, not the scheduler, decides that
// the sender learns of the loss before the reader does.
type goneConn struct {
	net.Conn        // unused; the reader and writeFrame call only the methods below
	last     []byte // queued on the connection when the peer closed
	wrote    chan struct{}
	once     sync.Once
}

// Close is what the reader does after an ABORT frame; the peer is gone
// already.
func (c *goneConn) Close() error { return nil }

func (c *goneConn) Write([]byte) (int, error) {
	c.once.Do(func() { close(c.wrote) })
	return 0, syscall.ECONNRESET
}

func (c *goneConn) Read(p []byte) (int, error) {
	<-c.wrote
	if len(c.last) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.last)
	c.last = c.last[n:]
	return n, nil
}

// TestSendToGonePeerIsRankAttributed forces the ordering behind the
// TestDistributedRankFailure flake — a survivor writes to a peer that is gone
// before its reader has seen anything — for both ways a peer goes. The broken
// write must surface as a RankFailure, from Send and through the failure
// handler exactly once, and the handler's cause must name the rank that died:
// the peer itself when it just died, but the rank its queued ABORT frame
// blames when the peer was a survivor that tore down after relaying.
func TestSendToGonePeerIsRankAttributed(t *testing.T) {
	relayed := append([]byte{frameAbort, 2, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0}, "oops"...)
	for _, tc := range []struct {
		name   string
		peer   int    // the rank written to
		last   []byte // what it wrote before closing
		blamed int    // the rank the failure handler must name
	}{
		{"peer died", 2, nil, 2},
		{"peer relayed rank 2's death and closed", 0, relayed, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := &goneConn{last: tc.last, wrote: make(chan struct{})}
			pc := &peerConn{nc: conn, done: make(chan struct{})}
			e := &Endpoint{self: 1, size: 3, box: transport.NewMailbox(), peers: make([]*peerConn, 3)}
			e.peers[tc.peer] = pc
			fails := make(chan error, 2)
			e.SetFailureHandler(func(err error) { fails <- err })
			go e.reader(tc.peer, pc) // blocked in Read until the write below has failed

			err := e.Send(tc.peer, transport.Message{Src: 1, Tag: 7, Payload: []byte("x")})
			var rf *transport.RankFailure
			if !errors.As(err, &rf) || rf.Rank != tc.peer || !errors.Is(err, syscall.ECONNRESET) {
				t.Fatalf("Send returned %v, want a RankFailure naming rank %d wrapping the write error", err, tc.peer)
			}
			<-pc.done
			if len(fails) != 1 {
				t.Fatalf("failure handler fired %d times, want once", len(fails))
			}
			if got := <-fails; !errors.As(got, &rf) || rf.Rank != tc.blamed {
				t.Fatalf("failure handler got %v, want a RankFailure naming rank %d", got, tc.blamed)
			}
		})
	}
}

// TestCloseDrainDeliversInflightData pins the BYE contract: data written
// before Close must be matchable by the peer afterwards — TCP ordering puts
// the BYE behind the data, so nothing delivered is ever discarded.
func TestCloseDrainDeliversInflightData(t *testing.T) {
	eps, err := NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("last words before close")
	if err := eps[0].Send(1, transport.Message{Src: 0, Tag: 7, Payload: want}); err != nil {
		t.Fatal(err)
	}
	// Concurrent close on both ends, like World.Close does.
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep transport.Transport) { defer wg.Done(); ep.Close() }(ep)
	}
	wg.Wait()
	m, _, ok := eps[1].Match(0, 7)
	if !ok || string(m.Payload) != string(want) {
		t.Fatalf("pre-close data lost: ok=%v payload=%q", ok, m.Payload)
	}
}

func TestCloseIsIdempotentAndFailureSilent(t *testing.T) {
	eps := mesh(t, 2)
	eps[0].SetFailureHandler(func(err error) { t.Errorf("closing endpoint reported failure: %v", err) })
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep transport.Transport) { defer wg.Done(); ep.Close() }(ep)
	}
	wg.Wait()
	if err := eps[0].Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestFailureBeforeHandlerRegistrationIsBuffered(t *testing.T) {
	eps := mesh(t, 2)
	eps[0].Abort(-1, "early abort")
	// Rank 1's reader may observe the abort before anyone registers a
	// handler; registration must replay the buffered failure.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := make(chan error, 1)
		eps[1].SetFailureHandler(func(err error) {
			select {
			case got <- err:
			default:
			}
		})
		select {
		case err := <-got:
			if !strings.Contains(err.Error(), "early abort") {
				t.Fatalf("buffered failure lacks reason: %v", err)
			}
			return
		case <-time.After(50 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("failure before handler registration was lost")
			}
		}
	}
}

func TestRendezvousRejectsDuplicateRank(t *testing.T) {
	if _, err := Join("127.0.0.1:1", -1, 2, JoinConfig{}); err == nil {
		t.Fatal("negative rank accepted")
	}
	if _, err := Join("127.0.0.1:1", 2, 2, JoinConfig{}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}
