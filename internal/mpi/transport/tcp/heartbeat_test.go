package tcp

// Failure-detection hardening: a hung rank (process stopped, host
// unreachable) never closes its sockets, so only heartbeats can surface it;
// and workers that start before the rendezvous must retry instead of dying
// to a refused connection.

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi/transport"
)

// joinPair wires a 2-rank loopback mesh with the given config on both sides.
func joinPair(t *testing.T, cfg JoinConfig) []*Endpoint {
	t.Helper()
	const p = 2
	rdv := startRendezvous(t, p)
	eps := make([]*Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := cfg
			c.Listen = "127.0.0.1:0"
			eps[r], errs[r] = Join(rdv, r, p, c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
	}
	return eps
}

// TestHeartbeatSurfacesHungPeer registers a fake rank 1 that completes the
// rendezvous and the mesh handshake, then goes silent forever without
// closing its connection — exactly what a SIGSTOPped process or an
// unreachable host looks like. Rank 0's failure handler must receive a
// RankFailure naming rank 1 and missed heartbeats; a plain blocking read
// would hang here forever.
func TestHeartbeatSurfacesHungPeer(t *testing.T) {
	const p = 2
	rdv := startRendezvous(t, p)
	cfg := JoinConfig{
		Listen:            "127.0.0.1:0",
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
	}
	var (
		ep      *Endpoint
		joinErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep, joinErr = Join(rdv, 0, p, cfg)
	}()

	// The fake rank 1: a real rendezvous registration (so rank 0's table is
	// complete) and a real mesh handshake, then nothing, ever.
	dummyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dummyLn.Close()
	addrs, err := rendezvous(context.Background(), rdv, 1, p, dummyLn.Addr().String(), dummyLn, time.Second)
	if err != nil {
		t.Fatalf("fake rank rendezvous: %v", err)
	}
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatalf("fake rank dial: %v", err)
	}
	defer conn.Close()
	var hs [binary.MaxVarintLen64]byte
	if _, err := conn.Write(hs[:binary.PutUvarint(hs[:], 1)]); err != nil {
		t.Fatalf("fake rank handshake: %v", err)
	}

	wg.Wait()
	if joinErr != nil {
		t.Fatalf("rank 0 join: %v", joinErr)
	}
	defer ep.Close()
	fails := make(chan error, 1)
	ep.SetFailureHandler(func(err error) {
		select {
		case fails <- err:
		default:
		}
	})
	select {
	case err := <-fails:
		var rf *transport.RankFailure
		if !errors.As(err, &rf) || rf.Rank != 1 {
			t.Fatalf("hung peer not attributed to rank 1: %v", err)
		}
		if !strings.Contains(err.Error(), "missed heartbeats") {
			t.Fatalf("hung peer not reported as missed heartbeats: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hung peer never surfaced as a rank failure")
	}
}

// TestHeartbeatKeepsQuietMeshAlive holds a mesh idle for many multiples of
// the heartbeat timeout: the idle-connection pings must keep both readers
// satisfied, so no failure fires and the mesh still delivers afterwards.
func TestHeartbeatKeepsQuietMeshAlive(t *testing.T) {
	eps := joinPair(t, JoinConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  120 * time.Millisecond,
	})
	fails := make(chan error, 2)
	for _, ep := range eps {
		ep.SetFailureHandler(func(err error) { fails <- err })
	}
	time.Sleep(600 * time.Millisecond) // five timeouts of application silence
	select {
	case err := <-fails:
		t.Fatalf("idle-but-healthy mesh failed: %v", err)
	default:
	}
	if err := eps[0].Send(1, transport.Message{Src: 0, Tag: 7, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	m := take(t, eps[1], 0, 7)
	if string(m.Payload) != "hi" {
		t.Fatalf("payload corrupted after idle period: %q", m.Payload)
	}
	closeAll(t, []transport.Transport{eps[0], eps[1]})
}

// TestJoinRejectsBadHeartbeatConfig pins the interval/timeout sanity check.
func TestJoinRejectsBadHeartbeatConfig(t *testing.T) {
	_, err := Join("127.0.0.1:1", 0, 2, JoinConfig{
		HeartbeatInterval: time.Second,
		HeartbeatTimeout:  time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "heartbeat timeout") {
		t.Fatalf("timeout ≤ interval accepted: %v", err)
	}
}

// TestAbortSurvivesDeadConnection aborts an endpoint whose connection is
// already closed (SetWriteDeadline errors on it): Abort must skip the peer
// without blocking or panicking.
func TestAbortSurvivesDeadConnection(t *testing.T) {
	eps := joinPair(t, JoinConfig{HeartbeatInterval: -1, HeartbeatTimeout: -1})
	eps[0].peers[1].nc.Close()
	doneAbort := make(chan struct{})
	go func() { eps[0].Abort(-1, "test abort over a dead connection"); close(doneAbort) }()
	select {
	case <-doneAbort:
	case <-time.After(5 * time.Second):
		t.Fatal("Abort blocked on a dead connection")
	}
	eps[1].Close()
}
