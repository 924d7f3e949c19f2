//go:build unix

package tcp

import (
	"net"
	"os"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/mpi/transport"
)

// boundNotListening binds a loopback TCP port without listening on it, so a
// dial to the returned address is refused while no other socket can take
// the port. listen turns that same socket into the rendezvous listener.
func boundNotListening(t *testing.T) (addr string, listen func() net.Listener) {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	syscall.CloseOnExec(fd)
	f := os.NewFile(uintptr(fd), "rendezvous")
	t.Cleanup(func() { f.Close() })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr = net.JoinHostPort("127.0.0.1", strconv.Itoa(sa.(*syscall.SockaddrInet4).Port))
	return addr, func() net.Listener {
		if err := syscall.Listen(fd, syscall.SOMAXCONN); err != nil {
			t.Fatal(err)
		}
		ln, err := net.FileListener(f) // a duplicate of fd, which the cleanup closes
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
}

// TestJoinRetriesRendezvous starts the workers first and the rendezvous
// late — the supervised-relaunch bootstrap order — and requires Join to
// redial until it is up instead of dying to the first refused connection.
// The rendezvous port is held from the start by a socket that is bound but
// not listening, so the early dials are refused and no worker socket can
// take the port before the rendezvous listens on it.
func TestJoinRetriesRendezvous(t *testing.T) {
	rdv, listen := boundNotListening(t)
	const p = 2
	eps := make([]transport.Transport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = Join(rdv, r, p, JoinConfig{
				Listen:      "127.0.0.1:0",
				DialTimeout: 10 * time.Second,
			})
		}(r)
	}
	time.Sleep(300 * time.Millisecond) // let both workers fail a few dials
	done := make(chan error, 1)
	go func() { done <- ServeRendezvous(listen(), p) }()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join with late rendezvous: %v", r, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	exchangeAllPairs(t, eps)
	closeAll(t, eps)
}

// TestDialRetryDropsSelfConnect: a dial from a port to that same port with
// nobody listening completes as a simultaneous open with itself.
// dropSelfConnected must recognise it and release the port at once — a
// plain close would hold it in TIME_WAIT and keep a rendezvous from binding
// it — and must leave a real connection open.
func TestDialRetryDropsSelfConnect(t *testing.T) {
	var self net.Conn
	for attempt := 0; self == nil; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().(*net.TCPAddr)
		ln.Close()
		// Dial the freed port from itself; another socket may take the
		// port in between, so try again then.
		d := net.Dialer{LocalAddr: addr, Timeout: time.Second}
		conn, err := d.Dial("tcp", addr.String())
		switch {
		case err == nil && conn.LocalAddr().String() == conn.RemoteAddr().String():
			self = conn
		case err == nil:
			conn.Close()
		case attempt == 10:
			t.Skipf("cannot make a self-connected socket on this host: %v", err)
		}
	}
	addr := self.LocalAddr().String()
	if !dropSelfConnected(self) {
		t.Fatalf("self-connected socket %v -> %v not recognised", self.LocalAddr(), self.RemoteAddr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port still held after dropping the self-connected socket: %v", err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if dropSelfConnected(conn) {
		t.Fatal("a connection to a listener was dropped as self-connected")
	}
	if _, err := conn.Write([]byte{1}); err != nil {
		t.Fatalf("kept connection unusable: %v", err)
	}
}
