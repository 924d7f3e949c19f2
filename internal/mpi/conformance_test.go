package mpi

// Transport conformance suite: every behavior the mpi layer promises —
// ordering, matching, collectives, chunking, cancellation — exercised
// through the same table of programs over every registered Transport
// implementation. A new transport earns its place by passing this file
// unchanged (add a row to conformanceTransports); the suite runs under
// -race in CI for both the in-process mailbox and the loopback TCP mesh.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/mpi/transport"
	"repro/internal/mpi/transport/tcp"
	"repro/internal/mpi/wire"
)

// conformanceTransport builds a fresh world of p ranks over one transport.
type conformanceTransport struct {
	name string
	make func(t *testing.T, p int) *World
}

func conformanceTransports() []conformanceTransport {
	return []conformanceTransport{
		{name: "inproc", make: func(t *testing.T, p int) *World {
			return NewWorld(p)
		}},
		{name: "tcp", make: func(t *testing.T, p int) *World {
			eps, err := tcp.NewLocal(p)
			if err != nil {
				t.Fatalf("tcp mesh: %v", err)
			}
			w := NewWorldTransport(eps...)
			t.Cleanup(func() { w.Close() })
			return w
		}},
	}
}

// forTransports runs fn on a fresh world of every transport × size.
func forTransports(t *testing.T, sizes []int, fn func(t *testing.T, w *World)) {
	t.Helper()
	for _, tr := range conformanceTransports() {
		for _, p := range sizes {
			t.Run(fmt.Sprintf("%s/P=%d", tr.name, p), func(t *testing.T) {
				fn(t, tr.make(t, p))
			})
		}
	}
}

// conformanceSizes keeps the socket meshes small; the inproc-only unit tests
// cover larger worlds.
var conformanceSizes = []int{1, 2, 4}

func TestConformanceFIFOAndTagMatching(t *testing.T) {
	forTransports(t, []int{2}, func(t *testing.T, w *World) {
		err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				for i := 0; i < 20; i++ {
					Send(c, 1, 5, []int{i})
				}
				Send(c, 1, 100, []byte("first"))
				Send(c, 1, 200, []byte("second"))
			} else {
				for i := 0; i < 20; i++ {
					if got := Recv[int](c, 0, 5); got[0] != i {
						panic(fmt.Sprintf("FIFO violated: want %d got %d", i, got[0]))
					}
				}
				// Receive in reverse tag order: matching is by (src, tag).
				b := Recv[byte](c, 0, 200)
				a := Recv[byte](c, 0, 100)
				if string(a) != "first" || string(b) != "second" {
					panic("tag matching broken")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceSelfSend(t *testing.T) {
	forTransports(t, conformanceSizes, func(t *testing.T, w *World) {
		err := w.Run(func(c *Comm) {
			Send(c, c.Rank(), 3, []int64{int64(c.Rank()), 42})
			got := Recv[int64](c, c.Rank(), 3)
			if got[0] != int64(c.Rank()) || got[1] != 42 {
				panic("self-send corrupted payload")
			}
			r := Irecv[int64](c, c.Rank(), 4)
			Isend(c, c.Rank(), 4, []int64{7}).Wait()
			if v := r.WaitValue(); v[0] != 7 {
				panic("nonblocking self-send corrupted payload")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceOneElementParts: a one-element part of a small type is an
// aligned frame of 9 to 16 bytes, which Go's allocator would place at an
// address aligned only to its size unless every allocation point asks for 16
// bytes. Each rank sends each peer one bool, int32 or uint64 through the
// blocking and the nonblocking all-to-all; every part must arrive intact, a
// misaligned frame being refused at the receiver.
func TestConformanceOneElementParts(t *testing.T) {
	oneElement(t, "bool", func(src, dst int) bool { return (src+dst)%2 == 1 })
	oneElement(t, "int32", func(src, dst int) int32 { return int32(-1000*src - dst) })
	oneElement(t, "uint64", func(src, dst int) uint64 { return uint64(src)<<40 | uint64(dst) })
}

func oneElement[T comparable](t *testing.T, name string, val func(src, dst int) T) {
	exchanges := []struct {
		op  string
		run func(c *Comm, send [][]T) [][]T
	}{
		{"Alltoallv", Alltoallv[T]},
		{"IAlltoallv", func(c *Comm, send [][]T) [][]T { return IAlltoallv(c, packBufs(send)).WaitValue() }},
	}
	for _, ex := range exchanges {
		t.Run(name+"/"+ex.op, func(t *testing.T) {
			forTransports(t, []int{2, 4}, func(t *testing.T, w *World) {
				err := w.Run(func(c *Comm) {
					send := make([][]T, c.Size())
					for dst := range send {
						send[dst] = []T{val(c.Rank(), dst)}
					}
					for src, part := range ex.run(c, send) {
						if len(part) != 1 || part[0] != val(src, c.Rank()) {
							panic(fmt.Sprintf("rank %d: part from %d is %v", c.Rank(), src, part))
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

func TestConformanceZeroLengthAlltoallv(t *testing.T) {
	forTransports(t, conformanceSizes, func(t *testing.T, w *World) {
		err := w.Run(func(c *Comm) {
			p := c.Size()
			send := make([][]int32, p)
			for r := 0; r < p; r++ {
				// Rank i sends r+i elements to rank r — zero-length for the
				// first pair, so empty segments must round-trip cleanly.
				n := (c.Rank() + r) % p
				seg := make([]int32, n)
				for i := range seg {
					seg[i] = int32(c.Rank()*100 + r)
				}
				send[r] = seg
			}
			recv := Alltoallv(c, send)
			for r := 0; r < p; r++ {
				wantN := (r + c.Rank()) % p
				if len(recv[r]) != wantN {
					panic(fmt.Sprintf("rank %d from %d: got %d elems, want %d", c.Rank(), r, len(recv[r]), wantN))
				}
				for _, v := range recv[r] {
					if v != int32(r*100+c.Rank()) {
						panic("zero-length alltoallv corrupted data")
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceChunkedHonoursLimit(t *testing.T) {
	old := MaxMessageBytes
	MaxMessageBytes = 64
	defer func() { MaxMessageBytes = old }()
	forTransports(t, []int{4}, func(t *testing.T, w *World) {
		err := w.Run(func(c *Comm) {
			p := c.Size()
			send := make([][]byte, p)
			for r := 0; r < p; r++ {
				buf := make([]byte, 300+r*17)
				for i := range buf {
					buf[i] = byte((c.Rank() + r + i) % 251)
				}
				send[r] = buf
			}
			recv := Alltoallv(c, send)
			for r := 0; r < p; r++ {
				want := make([]byte, 300+c.Rank()*17)
				for i := range want {
					want[i] = byte((r + c.Rank() + i) % 251)
				}
				if !reflect.DeepEqual(recv[r], want) {
					panic("chunked alltoallv corrupted data")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceInterleavedCollectivesOnSplitComms(t *testing.T) {
	forTransports(t, []int{4}, func(t *testing.T, w *World) {
		err := w.Run(func(c *Comm) {
			row := c.Split(c.Rank()/2, c.Rank()%2)
			col := c.Split(c.Rank()%2, c.Rank()/2)
			// Interleave world, row and col collectives: contexts and
			// per-collective tags must keep them all separate.
			sum := Allreduce(c, c.Rank(), func(a, b int) int { return a + b })
			rowSum := Allreduce(row, c.Rank(), func(a, b int) int { return a + b })
			req := IBcast(c, 0, wire.Marshal([]int{sum}))
			colSum := Allreduce(col, c.Rank(), func(a, b int) int { return a + b })
			got := mustUnmarshal[int](req.WaitFrame())
			if sum != 0+1+2+3 || got[0] != sum {
				panic(fmt.Sprintf("world collectives broken: sum=%d bcast=%d", sum, got[0]))
			}
			wantRow := 2*(c.Rank()/2)*2 + 1 // ranks 2k and 2k+1
			if rowSum != wantRow {
				panic(fmt.Sprintf("row sum = %d, want %d", rowSum, wantRow))
			}
			wantCol := c.Rank()%2 + (c.Rank()%2 + 2) // ranks k and k+2
			if colSum != wantCol {
				panic(fmt.Sprintf("col sum = %d, want %d", colSum, wantCol))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceCancelUnblocksReceive(t *testing.T) {
	forTransports(t, []int{2}, func(t *testing.T, w *World) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		err := w.RunCtx(ctx, func(c *Comm) {
			// Every rank blocks on a message nobody sends; only the
			// cancellation can unblock them.
			Recv[int64](c, (c.Rank()+1)%c.Size(), 999)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx after cancel: err = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("cancellation took %v, want prompt unwind", d)
		}
	})
}

// TestConformanceFailureDeliveryOrdering pins the failure contract the
// engine's fault handling builds on, at the world level over the socket
// transport (the in-process transport cannot lose a rank by construction —
// its Abort is a no-op and cancellation flows through the World itself):
//
//   - a rank's abort cancels every peer's world with a cause that
//     errors.As-unwraps to a *transport.RankFailure naming the aborting rank;
//   - the world keeps that cause: Err returns it, with the same attribution,
//     after Run has returned;
//   - messages delivered before the failure stay matchable at the transport,
//     so a receiver can drain what arrived before deciding how to unwind.
func TestConformanceFailureDeliveryOrdering(t *testing.T) {
	const p = 3
	eps, err := tcp.NewLocal(p)
	if err != nil {
		t.Fatalf("tcp mesh: %v", err)
	}
	w := NewWorldTransport(eps...)
	runErr := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			// Data first, then death: the tag-1 payload precedes the abort on
			// the wire, so it must survive the failure.
			Send(c, 1, 1, []int64{42})
			eps[0].Abort(-1, "injected fault: rank 0 dies")
		default:
			// Blocked on a message nobody will send; only the failure
			// propagation can unwind this.
			Recv[int64](c, 0, 99)
		}
	})
	if runErr == nil {
		t.Fatal("world survived a rank abort")
	}
	var rf *transport.RankFailure
	if !errors.As(runErr, &rf) {
		t.Fatalf("run error is not rank-attributed: %v", runErr)
	}
	if rf.Rank != 0 {
		t.Fatalf("failure names rank %d, want 0: %v", rf.Rank, runErr)
	}
	// The world keeps the cause after Run returns, attribution included.
	if err := w.Err(); !errors.As(err, &rf) || rf.Rank != 0 {
		t.Fatalf("world cause lost rank attribution: %v", err)
	}
	// The pre-failure message is still matchable at rank 1's endpoint
	// (scan-then-wait: its reader may still be draining).
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, notify, ok := eps[1].Match(0, 1)
		if ok {
			if v := mustUnmarshal[int64](m.Payload); v[0] != 42 {
				t.Fatalf("pre-failure payload corrupted: %v", v)
			}
			break
		}
		select {
		case <-notify:
		case <-time.After(time.Until(deadline)):
			t.Fatal("message delivered before the failure is no longer matchable")
		}
	}
	w.Close()
}

// TestConformanceCountersEqualAcrossTransports runs one traffic-heavy SPMD
// program on every transport and requires bit-equal byte/message counters —
// the invariant that makes perf numbers comparable across transports.
func TestConformanceCountersEqualAcrossTransports(t *testing.T) {
	type totals struct{ bytes, msgs int64 }
	program := func(c *Comm) {
		p := c.Size()
		send := make([][]int64, p)
		for r := 0; r < p; r++ {
			seg := make([]int64, (c.Rank()+r)%3*5)
			for i := range seg {
				seg[i] = int64(i)
			}
			send[r] = seg
		}
		IAlltoallv(c, packBufs(send)).Wait()
		Bcast(c, 0, []byte("counter probe"))
		Allreduce(c, int64(c.Rank()), func(a, b int64) int64 { return a + b })
		Gatherv(c, 0, []int32{int32(c.Rank())})
		Barrier(c)
	}
	const p = 4
	got := map[string]totals{}
	for _, tr := range conformanceTransports() {
		w := tr.make(t, p)
		if err := w.Run(program); err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		got[tr.name] = totals{w.TotalBytes(), w.TotalMsgs()}
	}
	ref := got["inproc"]
	if ref.bytes == 0 || ref.msgs == 0 {
		t.Fatalf("inproc counted no traffic: %+v", ref)
	}
	for name, tot := range got {
		if tot != ref {
			t.Errorf("%s counters %+v differ from inproc %+v", name, tot, ref)
		}
	}
}

// TestConformanceChunkedBoundary drives the chunked byte exchange at the
// sizes where its receive path changes — empty, exactly one full message
// (returned as the received chunk itself), one element more (two chunks,
// concatenated) — through all four all-to-alls (the rows named
// AlltoallvChunked and IAlltoallvChunked drive Alltoallv over plain []byte
// parts and IAlltoallv over BufOf them, encoded at send). Every one must
// deliver the
// same data with the same messages and bytes: per pair, a buffer that fits
// is one message of n bytes (n = 0 and 64: 12 messages at P = 4); a split
// one is a count message plus ceil(n/MaxMessageBytes) chunks, 8 + n bytes
// (n = 65: 36 messages, 876 bytes).
func TestConformanceChunkedBoundary(t *testing.T) {
	old := MaxMessageBytes
	MaxMessageBytes = 64
	defer func() { MaxMessageBytes = old }()
	fill := func(buf []byte, src, dst int) {
		for i := range buf {
			buf[i] = byte((src*31 + dst*7 + i) % 251)
		}
	}
	plain := func(c *Comm, n int) [][]byte {
		send := make([][]byte, c.Size())
		for dst := range send {
			send[dst] = make([]byte, n)
			fill(send[dst], c.Rank(), dst)
		}
		return send
	}
	packed := func(c *Comm, n int) []ByteBuf {
		send := make([]ByteBuf, c.Size())
		for dst := range send {
			send[dst] = NewByteBuf(n)
			fill(send[dst].Elems(), c.Rank(), dst)
		}
		return send
	}
	wrapped := func(c *Comm, n int) []ByteBuf {
		send := make([]ByteBuf, c.Size())
		for dst, part := range plain(c, n) {
			send[dst] = BufOf(part)
		}
		return send
	}
	exchanges := []struct {
		name string
		run  func(c *Comm, n int) [][]byte
	}{
		{"AlltoallvChunked", func(c *Comm, n int) [][]byte { return Alltoallv(c, plain(c, n)) }},
		{"IAlltoallvChunked", func(c *Comm, n int) [][]byte { return IAlltoallv(c, wrapped(c, n)).WaitValue() }},
		{"AlltoallvBytes", func(c *Comm, n int) [][]byte { return AlltoallvBytes(c, packed(c, n)) }},
		{"IAlltoallvBytes", func(c *Comm, n int) [][]byte { return IAlltoallvBytes(c, packed(c, n)).WaitValue() }},
	}
	const p = 4
	for _, n := range []int{0, 64, 65} {
		for _, ex := range exchanges {
			for _, tr := range conformanceTransports() {
				t.Run(fmt.Sprintf("n=%d/%s/%s", n, ex.name, tr.name), func(t *testing.T) {
					w := tr.make(t, p)
					err := w.Run(func(c *Comm) {
						recv := ex.run(c, n)
						for src := range recv {
							want := make([]byte, n)
							fill(want, src, c.Rank())
							if recv[src] == nil || !bytes.Equal(recv[src], want) {
								panic(fmt.Sprintf("rank %d: bad buffer from %d: %v", c.Rank(), src, recv[src]))
							}
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					pairs := int64(p * (p - 1))
					wantMsgs, wantBytes := pairs, pairs*int64(n)
					if n > 64 {
						wantMsgs, wantBytes = pairs*int64(1+(n+63)/64), pairs*int64(8+n)
					}
					if w.TotalMsgs() != wantMsgs || w.TotalBytes() != wantBytes {
						t.Fatalf("%d msgs / %d bytes, want %d / %d", w.TotalMsgs(), w.TotalBytes(), wantMsgs, wantBytes)
					}
				})
			}
		}
	}
}

// TestConformanceChunkedRejectsBadStreams: the element count of a chunked
// stream is the peer's word. A receiver must not allocate from it, and a
// count that is not positive (a buffer that fits is sent whole, so a split
// one has elements), a stream that stops short (an empty chunk) or a chunk
// that overruns the count must fail the world naming the sender — not panic
// in makeslice, not be silently accepted.
func TestConformanceChunkedRejectsBadStreams(t *testing.T) {
	streams := []struct {
		name string
		send func(c *Comm, tag int64)
	}{
		{"negative-count", func(c *Comm, tag int64) {
			SendOne(c, 1, tag, int64(-5))
		}},
		{"zero-count", func(c *Comm, tag int64) {
			SendOne(c, 1, tag, int64(0))
		}},
		{"huge-count-short-stream", func(c *Comm, tag int64) {
			SendOne(c, 1, tag, int64(1)<<60)
			sendAligned(c, 1, tag, []byte{1})
			sendAligned(c, 1, tag, []byte{})
		}},
		{"overrun", func(c *Comm, tag int64) {
			SendOne(c, 1, tag, int64(3))
			sendAligned(c, 1, tag, []byte{1, 2})
			sendAligned(c, 1, tag, []byte{3, 4})
		}},
	}
	recvs := []struct {
		name string
		recv func(c *Comm, tag int64)
	}{
		{"RecvChunked", func(c *Comm, tag int64) { RecvChunked[byte](c, 0, tag) }},
		{"IrecvChunked", func(c *Comm, tag int64) { IrecvChunked[byte](c, 0, tag).WaitValue() }},
	}
	for _, st := range streams {
		for _, rv := range recvs {
			t.Run(st.name+"/"+rv.name, func(t *testing.T) {
				forTransports(t, []int{2}, func(t *testing.T, w *World) {
					const tag = 77
					err := w.Run(func(c *Comm) {
						if c.Rank() == 0 {
							st.send(c, tag)
							return
						}
						rv.recv(c, tag)
						panic("bad chunked stream was accepted")
					})
					var rf *transport.RankFailure
					if !errors.As(err, &rf) || rf.Rank != 0 {
						t.Fatalf("err = %v, want a RankFailure naming rank 0", err)
					}
				})
			})
		}
	}
}
