package mpi

// The two-mode contract of the request layer, in one place: a kernel written
// post-early / wait-late runs unchanged on a nonblocking rank (its transfers
// progress in the background) and on a blocking one (they run inside Wait),
// and nothing but the overlap attribution may tell the two apart. The kernel
// packages compare their own results across modes; what the modes are allowed
// to differ in is owned here.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi/wire"
)

// modeOps are the nonblocking operations, each as an SPMD program that posts,
// reports whether any request with work of its own claimed completion right
// after the post, waits, and returns what it received.
var modeOps = []struct {
	name string
	run  func(c *Comm) (doneAtPost bool, got any)
}{
	{"IsendIrecv", func(c *Comm) (bool, any) {
		// The k-mer exchange: every receive posted before the first send.
		p := c.Size()
		tag := ReserveTag(c)
		recvs := make([]*RecvRequest[int32], p)
		for off := 1; off < p; off++ {
			src := (c.Rank() - off + p) % p
			recvs[src] = Irecv[int32](c, src, tag)
		}
		done := false
		for _, r := range recvs {
			done = done || (r != nil && r.Done())
		}
		for off := 1; off < p; off++ {
			dst := (c.Rank() + off) % p
			Isend(c, dst, tag, []int32{int32(c.Rank()), int32(dst), 7}).Wait()
		}
		got := make([][]int32, p)
		for src, r := range recvs {
			if r != nil {
				got[src] = r.WaitValue()
			}
		}
		return done, got
	}},
	{"IBcast", func(c *Comm) (bool, any) {
		root := c.Size() - 1
		var data []int64
		if c.Rank() == root {
			data = []int64{3, 1, 4, 1, 5, 9, 2, 6}
		}
		req := IBcast(c, root, wire.Marshal(data))
		done := req.Done()
		return done, mustUnmarshal[int64](req.WaitFrame())
	}},
	{"IAlltoallv", func(c *Comm) (bool, any) {
		send := make([][]int64, c.Size())
		for dst := range send {
			for i := 0; i < (c.Rank()+dst)%4; i++ {
				send[dst] = append(send[dst], int64(c.Rank()*100+dst*10+i))
			}
		}
		req := IAlltoallv(c, packBufs(send))
		done := req.Done() && c.Size() > 1
		return done, req.WaitValue()
	}},
	{"IAlltoallvChunked", func(c *Comm) (bool, any) {
		send := make([][]uint64, c.Size())
		for dst := range send {
			send[dst] = make([]uint64, 20+dst) // 160+ bytes: three chunks at the test's limit
			for i := range send[dst] {
				send[dst][i] = uint64(c.Rank()<<16 | dst<<8 | i)
			}
		}
		req := IAlltoallv(c, packBufs(send))
		done := req.Done() && c.Size() > 1
		return done, req.WaitValue()
	}},
	{"IAlltoallvBytes", func(c *Comm) (bool, any) {
		send := make([]ByteBuf, c.Size())
		for dst := range send {
			send[dst] = NewByteBuf(100 + dst)
			for i := range send[dst].Elems() {
				send[dst].Elems()[i] = byte(c.Rank()*31 + dst*7 + i)
			}
		}
		req := IAlltoallvBytes(c, send)
		done := req.Done() && c.Size() > 1
		return done, req.WaitValue()
	}},
}

// TestRequestModes: every nonblocking operation, on every transport, delivers
// the same values with the same bytes and messages in both modes; a
// nonblocking rank counts all of it as overlappable and a blocking rank none,
// and on a blocking rank nothing completes before its Wait. The lowered
// receive timeout turns a posts-before-sends deadlock into a quick failure.
func TestRequestModes(t *testing.T) {
	old := MaxMessageBytes
	MaxMessageBytes = 64
	defer func() { MaxMessageBytes = old }()
	type outcome struct {
		got        []any
		stats      []RankStats
		doneAtPost bool
	}
	run := func(t *testing.T, w *World, blocking bool, op func(c *Comm) (bool, any)) outcome {
		w.SetRecvTimeout(5 * time.Second)
		out := outcome{got: make([]any, w.Size())}
		done := make([]bool, w.Size())
		err := w.Run(func(c *Comm) {
			c.SetBlocking(blocking)
			done[c.Rank()], out.got[c.Rank()] = op(c)
		})
		if err != nil {
			t.Fatalf("blocking=%v: %v", blocking, err)
		}
		for _, d := range done {
			out.doneAtPost = out.doneAtPost || d
		}
		out.stats = w.Stats()
		return out
	}
	for _, op := range modeOps {
		for _, tr := range conformanceTransports() {
			for _, p := range []int{1, 4, 9} {
				t.Run(fmt.Sprintf("%s/%s/P=%d", op.name, tr.name, p), func(t *testing.T) {
					w := tr.make(t, p)
					nb, bl := run(t, w, false, op.run), run(t, tr.make(t, p), true, op.run)
					if !reflect.DeepEqual(nb.got, bl.got) {
						t.Errorf("values differ between modes:\nnonblocking %v\nblocking    %v", nb.got, bl.got)
					}
					if bl.doneAtPost {
						t.Error("a request of a blocking rank was Done before its Wait")
					}
					for r := range nb.stats {
						n, b := nb.stats[r], bl.stats[r]
						if n.BytesSent != b.BytesSent || n.MsgsSent != b.MsgsSent {
							t.Errorf("rank %d: traffic differs between modes: %d B / %d msgs nonblocking, %d / %d blocking",
								r, n.BytesSent, n.MsgsSent, b.BytesSent, b.MsgsSent)
						}
						if n.BytesAsync != n.BytesSent || n.MsgsAsync != n.MsgsSent {
							t.Errorf("rank %d: nonblocking rank counted %d of %d B, %d of %d msgs as overlappable",
								r, n.BytesAsync, n.BytesSent, n.MsgsAsync, n.MsgsSent)
						}
						if b.BytesAsync != 0 || b.MsgsAsync != 0 {
							t.Errorf("rank %d: blocking rank counted %d B / %d msgs as overlappable",
								r, b.BytesAsync, b.MsgsAsync)
						}
					}
					if w.Size() > 1 && w.TotalBytes() == 0 {
						t.Error("no traffic")
					}
				})
			}
		}
	}
}

// mustPanic runs fn and returns the text of the panic it must raise.
func mustPanic(what string, fn func()) (msg string) {
	defer func() {
		v := recover()
		if v == nil {
			panic(what + " did not panic")
		}
		msg = fmt.Sprint(v)
	}()
	fn()
	return ""
}

// TestRequestModesMisuseAndFailure: the single-use contract and the place a
// failure surfaces are the same in both modes — a second Wait panics, and a
// panic in a request's work (here a datatype mismatch) is raised by Wait on
// the rank goroutine, never by the post.
func TestRequestModesMisuseAndFailure(t *testing.T) {
	for _, blocking := range []bool{false, true} {
		err := Run(2, func(c *Comm) {
			c.SetBlocking(blocking)
			peer := 1 - c.Rank()
			tag := ReserveTag(c)
			recv := Irecv[int](c, peer, tag)
			send := Isend(c, peer, tag, []int{c.Rank()})
			bcast := IBcast(c, 0, wire.Marshal([]int{1}))
			all := IAlltoallv(c, packBufs([][]int{{1}, {2}}))
			for i, r := range []Request{send, recv, bcast, all} {
				r.Wait()
				if msg := mustPanic("second Wait", r.Wait); !strings.Contains(msg, "waited twice") {
					panic(fmt.Sprintf("request %d: second Wait panicked with %s", i, msg))
				}
			}

			tag = ReserveTag(c)
			bad := Irecv[int64](c, peer, tag) // the peer sends strings: the post must not notice
			Isend(c, peer, tag, []string{"not", "int64"}).Wait()
			if msg := mustPanic("Wait on a mismatched receive", bad.Wait); !strings.Contains(msg, "type mismatch") {
				panic("mismatched receive panicked with " + msg)
			}
		})
		if err != nil {
			t.Fatalf("blocking=%v: %v", blocking, err)
		}
	}
}

// TestSetBlockingScopes: the mode belongs to the world rank — every
// communicator of the rank sees it — `defer c.SetBlocking(c.SetBlocking(on))`
// restores whatever mode the caller was in, and a request keeps the mode it
// was posted in.
func TestSetBlockingScopes(t *testing.T) {
	err := Run(4, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		scoped := func(on bool, inner func()) {
			defer c.SetBlocking(c.SetBlocking(on))
			if inner != nil {
				inner()
			}
			if now := sub.SetBlocking(on); now != on {
				panic(fmt.Sprintf("inside a scope of %v the split communicator saw %v", on, now))
			}
		}
		for _, outer := range []bool{false, true} {
			c.SetBlocking(outer)
			scoped(!outer, func() { scoped(outer, nil) })
			scoped(outer, nil)
			if now := c.SetBlocking(outer); now != outer {
				panic(fmt.Sprintf("mode %v not restored: %v", outer, now))
			}
		}

		c.SetBlocking(true)
		req := IBcast(c, 0, wire.Marshal([]int{42}))
		c.SetBlocking(false)
		Barrier(c)
		if req.Done() {
			panic("a request posted by a blocking rank ran before its Wait")
		}
		if got := mustUnmarshal[int](req.WaitFrame()); len(got) != 1 || got[0] != 42 {
			panic(fmt.Sprintf("bcast got %v", got))
		}
		if c.BytesAsync() != 0 {
			panic("a request posted by a blocking rank counted overlappable bytes")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
