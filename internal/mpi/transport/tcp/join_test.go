package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/mpi/transport"
)

// startRendezvous serves a p-rank bootstrap on loopback and returns its
// address.
func startRendezvous(t *testing.T, p int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ServeRendezvous(ln, p) }()
	t.Cleanup(func() {
		if err := <-done; err != nil {
			t.Errorf("rendezvous: %v", err)
		}
	})
	return ln.Addr().String()
}

// closeAll closes endpoints concurrently, like World.Close (the BYE drain of
// each waits for its peers').
func closeAll(t *testing.T, eps []transport.Transport) {
	t.Helper()
	var wg sync.WaitGroup
	for _, ep := range eps {
		if ep == nil {
			continue
		}
		wg.Add(1)
		go func(ep transport.Transport) { defer wg.Done(); ep.Close() }(ep)
	}
	wg.Wait()
}

// exchangeAllPairs sends one tagged message per ordered rank pair and
// receives them all — the mesh works iff every connection does.
func exchangeAllPairs(t *testing.T, eps []transport.Transport) {
	t.Helper()
	p := len(eps)
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			payload := []byte{byte(src), byte(dst)}
			if err := eps[src].Send(dst, transport.Message{Src: src, Tag: int64(10*src + dst), Payload: payload}); err != nil {
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

// secondLoopbackOrSkip skips the test on hosts without a dialable second
// loopback interface (127.0.0.2 works out of the box on Linux).
func secondLoopbackOrSkip(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.2:0")
	if err != nil {
		t.Skipf("second loopback interface unavailable: %v", err)
	}
	ln.Close()
}

// TestJoinTwoHostMesh wires a 4-rank mesh across two distinct loopback
// interfaces — ranks 0,1 on 127.0.0.1 and ranks 2,3 on 127.0.0.2 — the
// in-test stand-in for two machines. Every rank must learn a routable (here:
// interface-specific) address for every peer and deliver on all pairs.
func TestJoinTwoHostMesh(t *testing.T) {
	secondLoopbackOrSkip(t)
	hosts := []string{"127.0.0.1", "127.0.0.1", "127.0.0.2", "127.0.0.2"}
	eps, err := NewLocalHosts(hosts)
	if err != nil {
		t.Fatalf("NewLocalHosts: %v", err)
	}
	t.Cleanup(func() { closeAll(t, eps) })
	for i, ep := range eps {
		if ep.Self() != i || ep.Size() != len(hosts) {
			t.Fatalf("endpoint %d misconfigured: self=%d size=%d", i, ep.Self(), ep.Size())
		}
	}
	exchangeAllPairs(t, eps)
}

// TestJoinUnspecifiedListenAddress joins ranks that bind every interface
// (":0") and advertise no concrete host: each derives its advertised host
// from its route to the rendezvous, falling back to the server-side rewrite
// from the registration's source address. The mesh must still wire and
// deliver.
func TestJoinUnspecifiedListenAddress(t *testing.T) {
	const p = 3
	rdv := startRendezvous(t, p)
	eps := make([]transport.Transport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := Join(rdv, r, p, JoinConfig{Listen: ":0"})
			if err == nil {
				eps[r] = ep
			}
			errs[r] = err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
	}
	t.Cleanup(func() { closeAll(t, eps) })
	exchangeAllPairs(t, eps)
}

// TestJoinRejectsBadRank pins the argument validation of the join path.
func TestJoinRejectsBadRank(t *testing.T) {
	if _, err := Join("127.0.0.1:1", -1, 2, JoinConfig{}); err == nil {
		t.Fatal("negative rank accepted")
	}
	if _, err := Join("127.0.0.1:1", 2, 2, JoinConfig{}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// TestRewriteUnspecified pins the server-side advertise rewrite: a
// registration with an unspecified or empty host takes the host its
// connection actually came from; concrete hosts pass through untouched.
func TestRewriteUnspecified(t *testing.T) {
	from := &net.TCPAddr{IP: net.ParseIP("127.0.0.5"), Port: 33000}
	cases := []struct{ in, want string }{
		{":9000", "127.0.0.5:9000"},
		{"0.0.0.0:9000", "127.0.0.5:9000"},
		{"[::]:9000", "127.0.0.5:9000"},
		{"127.0.0.2:9000", "127.0.0.2:9000"},
		{"example.com:9000", "example.com:9000"},
	}
	for _, c := range cases {
		if got := rewriteUnspecified(c.in, from); got != c.want {
			t.Errorf("rewriteUnspecified(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestReaderFailureIsRankAttributed pins the typed failure contract: when a
// peer's connection dies abruptly (no BYE handshake, as a killed process
// would), the surviving side's failure handler receives a
// *transport.RankFailure naming that peer.
func TestReaderFailureIsRankAttributed(t *testing.T) {
	const p = 2
	rdv := startRendezvous(t, p)
	eps := make([]*Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = Join(rdv, r, p, JoinConfig{Listen: "127.0.0.1:0"})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
	}
	fails := make(chan error, 1)
	eps[0].SetFailureHandler(func(err error) {
		select {
		case fails <- err:
		default:
		}
	})
	// Abrupt death of rank 1: sever its side of every connection directly.
	for _, pc := range eps[1].peers {
		if pc != nil {
			pc.nc.Close()
		}
	}
	err := <-fails
	var rf *transport.RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("failure is not rank-attributed: %v", err)
	}
	if rf.Rank != 1 {
		t.Fatalf("failure names rank %d, want 1: %v", rf.Rank, err)
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("failure text does not name the dead rank: %v", err)
	}
	eps[0].Close()
	eps[1].Close()
}

// TestRendezvousOutlivesStrangers: a silent connection and an HTTP request
// reach the rendezvous before any rank registers. The HTTP one must be
// dropped (its connection closed by the server), the silent one must hold up
// nobody, and all p ranks must still receive the address table and wire
// their mesh — well inside a dial budget far shorter than the deadline a
// silent stranger could otherwise hold the rendezvous for.
func TestRendezvousOutlivesStrangers(t *testing.T) {
	const p = 4
	rdv := startRendezvous(t, p)
	silent, err := net.Dial("tcp", rdv)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	probe, err := net.Dial("tcp", rdv)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	if _, err := probe.Write([]byte("GET /healthz HTTP/1.1\r\nHost: elba\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	eps := make([]transport.Transport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = Join(rdv, r, p, JoinConfig{Listen: "127.0.0.1:0", DialTimeout: 3 * time.Second})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join behind two strangers: %v", r, err)
		}
	}
	t.Cleanup(func() { closeAll(t, eps) })
	exchangeAllPairs(t, eps)
	probe.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := probe.Read(make([]byte, 64)); n != 0 || !closedByPeer(err) {
		t.Fatalf("the HTTP stranger's connection read %d bytes, %v; want it closed by the rendezvous", n, err)
	}
}

// closedByPeer reports whether a read error means the other side closed the
// connection: EOF, or a reset when it closed with bytes of ours unread — as
// the rendezvous does to a connection it accepted but had not read yet when
// the last rank registered.
func closedByPeer(err error) bool {
	return err == io.EOF || errors.Is(err, syscall.ECONNRESET)
}

// TestRendezvousDropsDuplicateRank: two connections register rank 0 before
// the other ranks arrive. Whichever the rendezvous takes first is rank 0: it
// gets the table, with its own address in slot 0, as every other rank does.
// The other is dropped, its connection closed with nothing written.
func TestRendezvousDropsDuplicateRank(t *testing.T) {
	const p = 3
	rdv := startRendezvous(t, p)
	register := func(rank int, addr string) net.Conn {
		conn, err := net.Dial("tcp", rdv)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		bw := bufio.NewWriter(conn)
		bw.Write(binary.AppendUvarint(nil, uint64(rank)))
		writeString(bw, addr)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	table := func(conn net.Conn) ([]string, error) {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(conn)
		addrs := make([]string, p)
		for i := range addrs {
			var err error
			if addrs[i], err = readString(br); err != nil {
				return nil, err
			}
		}
		return addrs, nil
	}
	claims := []string{"127.0.0.1:1", "127.0.0.1:2"}
	conns := []net.Conn{register(0, claims[0]), register(0, claims[1]), register(1, "127.0.0.1:3"), register(2, "127.0.0.1:4")}
	var got [][]string
	for i, conn := range conns {
		addrs, err := table(conn)
		switch {
		case i < 2 && closedByPeer(err):
			continue // the dropped claim
		case err != nil:
			t.Fatalf("connection %d: %v", i, err)
		case i < 2 && addrs[0] != claims[i]:
			t.Fatalf("rank 0 claim %d received a table naming %q for rank 0", i, addrs[0])
		}
		got = append(got, addrs)
	}
	if len(got) != p {
		t.Fatalf("%d connections received the table, want %d (one rank 0 claim dropped)", len(got), p)
	}
	for _, addrs := range got[1:] {
		if !slices.Equal(addrs, got[0]) || addrs[1] != "127.0.0.1:3" || addrs[2] != "127.0.0.1:4" {
			t.Fatalf("ranks received different tables: %q", got)
		}
	}
}

// scriptedListener hands out the connections sent on its channel and fails
// every Accept once the channel is closed.
type scriptedListener chan net.Conn

func (l scriptedListener) Accept() (net.Conn, error) {
	if c, ok := <-l; ok {
		return c, nil
	}
	return nil, errors.New("listener broke")
}
func (scriptedListener) Close() error   { return nil }
func (scriptedListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestRendezvousAcceptErrorClosesRanks: when the listener fails after a rank
// has registered, the rendezvous returns the accept error and closes that
// rank's connection, so the worker fails its join at once instead of waiting
// out its deadline for a table that will never come.
func TestRendezvousAcceptErrorClosesRanks(t *testing.T) {
	ln := make(scriptedListener, 1)
	worker, server := net.Pipe()
	defer worker.Close()
	ln <- server
	done := make(chan error, 1)
	go func() { done <- ServeRendezvous(ln, 2) }()
	var reg bytes.Buffer
	bw := bufio.NewWriter(&reg)
	bw.WriteByte(0)
	writeString(bw, "127.0.0.1:4242")
	bw.Flush()
	if _, err := worker.Write(reg.Bytes()); err != nil {
		t.Fatal(err)
	}
	close(ln)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "listener broke") {
		t.Fatalf("rendezvous returned %v, want the accept error", err)
	}
	worker.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := worker.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("the registered rank's connection read %d bytes, %v; want it closed", n, err)
	}
}

// FuzzRendezvousRegistration feeds arbitrary bytes to the rendezvous'
// registration parser as the first bytes of a connection to a p-rank world.
// It must never panic, and a registration it accepts must name a rank in
// [0, p) and be what the bytes it consumed say when decoded independently:
// a uvarint rank, a uvarint length, then that many bytes of address.
func FuzzRendezvousRegistration(f *testing.F) {
	var reg bytes.Buffer
	bw := bufio.NewWriter(&reg)
	bw.WriteByte(3)
	writeString(bw, "127.0.0.1:4242")
	bw.Flush()
	f.Add(reg.Bytes(), uint8(4))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: elba\r\n\r\n"), uint8(64))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, uint8(4))
	f.Add([]byte{0, 0xff, 0xff, 0x7f}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, np uint8) {
		p := 1 + int(np)%64
		rd := bytes.NewReader(data)
		br := bufio.NewReader(rd)
		rank, addr, err := readRegistration(br, p)
		if err != nil {
			return
		}
		if rank < 0 || rank >= p {
			t.Fatalf("accepted rank %d of a %d-rank world", rank, p)
		}
		used := data[:len(data)-rd.Len()-br.Buffered()]
		r, n := binary.Uvarint(used)
		if n <= 0 || r != uint64(rank) {
			t.Fatalf("accepted rank %d from %x, which starts with rank %d (%d bytes)", rank, used, r, n)
		}
		l, m := binary.Uvarint(used[n:])
		if m <= 0 || l != uint64(len(addr)) || string(used[n+m:]) != addr {
			t.Fatalf("accepted address %q from %x, which holds a %d-byte address after the rank", addr, used, l)
		}
	})
}

// TestNewLocalHostsFailsFast: when one rank cannot join — here it cannot
// bind its listener on an address no interface has — the setup returns that
// rank's error at once, not a peer's timeout on the rendezvous it can never
// complete, and leaves no goroutine or listener behind.
func TestNewLocalHostsFailsFast(t *testing.T) {
	const unbound = "192.0.2.1" // TEST-NET-1: reserved, assigned to no host
	if ln, err := net.Listen("tcp", net.JoinHostPort(unbound, "0")); err == nil {
		ln.Close()
		t.Skipf("this host can bind %s", unbound)
	}
	before := runtime.NumGoroutine()
	start := time.Now()
	eps, err := NewLocalHosts([]string{"127.0.0.1", unbound, "127.0.0.1", "127.0.0.1"})
	elapsed := time.Since(start)
	if err == nil {
		closeAll(t, eps)
		t.Fatal("a mesh with an unbindable rank was wired")
	}
	if elapsed > time.Second {
		t.Fatalf("setup took %v to fail, want about none", elapsed)
	}
	if msg := err.Error(); !strings.Contains(msg, "rank 1") || !strings.Contains(msg, unbound) {
		t.Fatalf("error %q does not name rank 1's bind failure", msg)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left running after the failed setup (%d before):\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
