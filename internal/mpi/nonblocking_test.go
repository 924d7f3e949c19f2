package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi/transport"
	"repro/internal/mpi/wire"
)

func TestIsendIrecvRoundtrip(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		err := Run(p, func(c *Comm) {
			// Every rank sends its rank id repeated to every other rank,
			// receives with pre-posted Irecvs, and checks contents.
			tag := ReserveTag(c)
			reqs := make([]*RecvRequest[int], p)
			for src := 0; src < p; src++ {
				if src == c.Rank() {
					continue
				}
				reqs[src] = Irecv[int](c, src, tag)
			}
			for dst := 0; dst < p; dst++ {
				if dst == c.Rank() {
					continue
				}
				Isend(c, dst, tag, []int{c.Rank(), c.Rank() * 10}).Wait()
			}
			for src := 0; src < p; src++ {
				if src == c.Rank() {
					continue
				}
				got := reqs[src].WaitValue()
				if !reflect.DeepEqual(got, []int{src, src * 10}) {
					panic(fmt.Sprintf("rank %d: from %d got %v", c.Rank(), src, got))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestIsendSelf(t *testing.T) {
	// A rank may Isend to itself: the buffered send completes immediately and
	// the posted receive matches it (blocking self-sends work for the same
	// reason).
	err := Run(3, func(c *Comm) {
		tag := ReserveTag(c)
		req := Irecv[int](c, c.Rank(), tag)
		Isend(c, c.Rank(), tag, []int{41 + c.Rank()}).Wait()
		got := req.WaitValue()
		if len(got) != 1 || got[0] != 41+c.Rank() {
			panic(fmt.Sprintf("self-send got %v", got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvOverlapsCompute(t *testing.T) {
	// The message must land while the receiver is "computing" (not blocked in
	// Wait): after a barrier that orders the send before the check, Done
	// reports completion without any Wait having run.
	err := Run(2, func(c *Comm) {
		const tag = 9
		if c.Rank() == 1 {
			req := Irecv[int](c, 0, tag)
			Barrier(c) // rank 0 sends before entering the barrier
			for !req.Done() {
			} // the matcher drains without Wait being called
			if got := req.WaitValue(); got[0] != 7 {
				panic(fmt.Sprintf("got %v", got))
			}
		} else {
			Send(c, 1, tag, []int{7})
			Barrier(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoubleWaitPanics(t *testing.T) {
	err := Run(2, func(c *Comm) {
		const tag = 3
		if c.Rank() == 0 {
			req := Isend(c, 1, tag, []int{1})
			req.Wait()
			func() {
				defer func() {
					if recover() == nil {
						panic("second Wait on a send request did not panic")
					}
				}()
				req.Wait()
			}()
		} else {
			Recv[int](c, 0, tag)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoubleWaitRecvPanics(t *testing.T) {
	err := Run(2, func(c *Comm) {
		const tag = 4
		if c.Rank() == 0 {
			Send(c, 1, tag, []int{1})
		} else {
			req := Irecv[int](c, 0, tag)
			req.Wait()
			func() {
				defer func() {
					if recover() == nil {
						panic("second Wait on a recv request did not panic")
					}
				}()
				req.Wait()
			}()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitallMixedRequests(t *testing.T) {
	err := Run(4, func(c *Comm) {
		tag := ReserveTag(c)
		p := c.Size()
		var reqs []Request
		recvs := make([]*RecvRequest[byte], 0, p-1)
		for off := 1; off < p; off++ {
			src := (c.Rank() - off + p) % p
			r := Irecv[byte](c, src, tag)
			recvs = append(recvs, r)
			reqs = append(reqs, r)
		}
		for off := 1; off < p; off++ {
			dst := (c.Rank() + off) % p
			reqs = append(reqs, Isend(c, dst, tag, []byte{byte(c.Rank())}))
		}
		for _, r := range reqs {
			r.Wait()
		}
		for _, r := range recvs {
			if len(r.Value()) != 1 {
				panic("recv value missing after waiting every request")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIBcastMatchesBcast: from every root, IBcast delivers what Bcast does,
// and an aligned frame arrives 8-byte aligned. One more input broadcasts
// 160-byte frames under MaxMessageBytes = 64 at P 4 and 9, where every hop
// is chunked.
func TestIBcastMatchesBcast(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) { ibcastMatchesBcast(t, p, 2) })
	defer func(old int64) { MaxMessageBytes = old }(MaxMessageBytes)
	for _, p := range []int{4, 9} {
		t.Run(fmt.Sprintf("MaxMessageBytes=64/P=%d", p), func(t *testing.T) {
			MaxMessageBytes = 64
			ibcastMatchesBcast(t, p, 40)
		})
	}
}

func ibcastMatchesBcast(t *testing.T, p, n int) {
	err := Run(p, func(c *Comm) {
		for root := 0; root < p; root++ {
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(root*1000 + i)
			}
			var data []int32
			var aligned []byte
			if c.Rank() == root {
				data = want
				var payload []byte
				aligned, payload = wire.NewAlignedFrame[int32](4 * n)
				copy(payload, wire.AppendElems(nil, want))
			}
			got := mustUnmarshal[int32](IBcast(c, root, wire.Marshal(data)).WaitFrame())
			if !reflect.DeepEqual(got, want) {
				panic(fmt.Sprintf("rank %d root %d: got %v", c.Rank(), root, got))
			}
			if got := Bcast(c, root, data); !reflect.DeepEqual(got, want) {
				panic(fmt.Sprintf("rank %d root %d: Bcast got %v", c.Rank(), root, got))
			}
			payload, err := wire.AlignedPayload[int32](IBcast(c, root, aligned).WaitFrame())
			if err != nil {
				panic(fmt.Sprintf("rank %d root %d: %v", c.Rank(), root, err))
			}
			if !bytes.Equal(payload, wire.AppendElems(nil, want)) {
				panic(fmt.Sprintf("rank %d root %d: aligned payload differs", c.Rank(), root))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIBcastRefusesOneValueFrame: a chunked broadcast announces itself with
// a one-value count, so IBcast refuses to broadcast a one-value frame.
func TestIBcastRefusesOneValueFrame(t *testing.T) {
	err := Run(1, func(c *Comm) { IBcast(c, 0, wire.MarshalOne(int64(7))).Wait() })
	if err == nil || !strings.Contains(err.Error(), "one-value frame") {
		t.Fatalf("IBcast of a one-value frame: err = %v", err)
	}
}

func TestIBcastPrefetchPipeline(t *testing.T) {
	// The SUMMA schedule: several IBcasts with different roots in flight at
	// once, waited in posting order — payloads must never cross rounds.
	forSizes(t, func(t *testing.T, p int) {
		err := Run(p, func(c *Comm) {
			reqs := make([]*BcastRequest, p)
			for root := 0; root < p; root++ {
				var data []int
				if c.Rank() == root {
					data = []int{root * 7}
				}
				reqs[root] = IBcast(c, root, wire.Marshal(data))
			}
			for root := 0; root < p; root++ {
				got := mustUnmarshal[int](reqs[root].WaitFrame())
				if len(got) != 1 || got[0] != root*7 {
					panic(fmt.Sprintf("rank %d round %d: got %v", c.Rank(), root, got))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// alltoallvCases builds a deterministic ragged send matrix including empty
// segments (to every destination from some ranks) and the self segment.
func alltoallvCases(rng *rand.Rand, p, rank int) [][]int64 {
	send := make([][]int64, p)
	for dst := 0; dst < p; dst++ {
		n := rng.Intn(4)
		if (rank+dst)%3 == 0 {
			n = 0 // exercise zero-length segments
		}
		for k := 0; k < n; k++ {
			send[dst] = append(send[dst], int64(rank)<<32|int64(dst)<<16|int64(k))
		}
	}
	return send
}

// packBufs copies every part into a Buf of its own, as a sender packing its
// parts in place would have them; a nil part stays the zero Buf, so the own
// part of a result is nil exactly where Alltoallv's is.
func packBufs[T any](parts [][]T) []Buf[T] {
	bufs := make([]Buf[T], len(parts))
	for r, part := range parts {
		if part == nil {
			continue
		}
		bufs[r] = NewBuf[T](len(part))
		copy(bufs[r].Elems(), part)
	}
	return bufs
}

func TestIAlltoallvMatchesBlocking(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		// Two worlds, same payloads: the blocking and nonblocking alltoallv
		// must deliver identical results and identical traffic counters.
		var syncStats, asyncStats []RankStats
		var syncRes, asyncRes [][][]int64

		runOne := func(async bool) ([]RankStats, [][][]int64) {
			w := NewWorld(p)
			res := make([][][]int64, p)
			err := w.Run(func(c *Comm) {
				rng := rand.New(rand.NewSource(int64(31*p + c.Rank())))
				send := alltoallvCases(rng, p, c.Rank())
				if async {
					res[c.Rank()] = IAlltoallv(c, packBufs(send)).WaitValue()
				} else {
					res[c.Rank()] = Alltoallv(c, send)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return w.Stats(), res
		}
		syncStats, syncRes = runOne(false)
		asyncStats, asyncRes = runOne(true)

		if !reflect.DeepEqual(syncRes, asyncRes) {
			t.Fatalf("results differ between blocking and nonblocking alltoallv")
		}
		for r := range syncStats {
			if syncStats[r].BytesSent != asyncStats[r].BytesSent || syncStats[r].MsgsSent != asyncStats[r].MsgsSent {
				t.Fatalf("rank %d traffic differs: sync %d B/%d msgs, async %d B/%d msgs",
					r, syncStats[r].BytesSent, syncStats[r].MsgsSent,
					asyncStats[r].BytesSent, asyncStats[r].MsgsSent)
			}
			if syncStats[r].BytesAsync != 0 {
				t.Fatalf("rank %d: blocking run counted %d async bytes", r, syncStats[r].BytesAsync)
			}
			if asyncStats[r].BytesAsync == 0 && asyncStats[r].BytesSent > 0 && p > 1 {
				t.Fatalf("rank %d: nonblocking run counted no async bytes (sent %d)", r, asyncStats[r].BytesSent)
			}
		}
	})
}

func TestIAlltoallvChunkedHonoursLimit(t *testing.T) {
	defer func(old int64) { MaxMessageBytes = old }(MaxMessageBytes)
	MaxMessageBytes = 64 // force chunking of every segment
	err := Run(4, func(c *Comm) {
		p := c.Size()
		send := make([][]int64, p)
		for dst := 0; dst < p; dst++ {
			for k := 0; k < 40; k++ { // 320 bytes per segment → 5 chunks
				send[dst] = append(send[dst], int64(c.Rank()*1000+dst*100+k))
			}
		}
		got := IAlltoallv(c, packBufs(send)).WaitValue()
		for src := 0; src < p; src++ {
			for k := 0; k < 40; k++ {
				if got[src][k] != int64(src*1000+c.Rank()*100+k) {
					panic(fmt.Sprintf("rank %d: bad element from %d", c.Rank(), src))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInflightAccountingDrainsToZero: once every rank has waited its
// nonblocking exchange and left the barriers behind it, no message is left
// queued at any endpoint — each one sent was taken by its receiver.
func TestInflightAccountingDrainsToZero(t *testing.T) {
	eps := transport.NewInproc(4)
	err := NewWorldTransport(eps...).Run(func(c *Comm) {
		send := make([][]int32, c.Size())
		for dst := range send {
			send[dst] = []int32{int32(c.Rank()), int32(dst)}
		}
		IAlltoallv(c, packBufs(send)).Wait()
		Barrier(c)
		Barrier(c)
		Barrier(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ep := range eps {
		if dump := ep.(transport.PendingDumper).PendingDump(); dump != "" {
			t.Errorf("rank %d still holds queued messages after the drain:%s", r, dump)
		}
	}
}

func TestAlltoallvZeroLengthAndSelfOnly(t *testing.T) {
	// Blocking collective edge cases: every segment empty, and traffic only
	// to self — both must round-trip without deadlock in both modes, and the
	// self segment is given away: the result's own part is the send buffer
	// itself, not a copy.
	for _, async := range []bool{false, true} {
		err := Run(3, func(c *Comm) {
			p := c.Size()
			empty := make([][]int, p)
			var got [][]int
			if async {
				got = IAlltoallv(c, packBufs(empty)).WaitValue()
			} else {
				got = Alltoallv(c, empty)
			}
			for r := range got {
				if len(got[r]) != 0 {
					panic("zero-length alltoallv produced elements")
				}
			}
			selfOnly := make([][]int, p)
			selfOnly[c.Rank()] = []int{c.Rank() * 3}
			own := selfOnly[c.Rank()]
			if async {
				bufs := packBufs(selfOnly)
				own = bufs[c.Rank()].Elems()
				got = IAlltoallv(c, bufs).WaitValue()
			} else {
				got = Alltoallv(c, selfOnly)
			}
			if len(got[c.Rank()]) != 1 || got[c.Rank()][0] != c.Rank()*3 {
				panic("self segment lost")
			}
			if &got[c.Rank()][0] != &own[0] {
				panic("self segment copied, not given away")
			}
		})
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
	}
}

func TestIsendCopiesPayload(t *testing.T) {
	err := Run(2, func(c *Comm) {
		const tag = 11
		if c.Rank() == 0 {
			buf := []int{1, 2, 3}
			Isend(c, 1, tag, buf).Wait()
			buf[0] = 99 // must not be visible to the receiver
			Send(c, 1, tag+1, []int{0})
		} else {
			got := Irecv[int](c, 0, tag).WaitValue()
			Recv[int](c, 0, tag+1)
			if got[0] != 1 {
				panic("Isend did not copy its payload")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedAsyncAndCollectives(t *testing.T) {
	// A posted IAlltoallv must not cross-match with collectives issued while
	// it is in flight (distinct tags via the shared sequence counter).
	err := Run(4, func(c *Comm) {
		p := c.Size()
		send := make([][]int, p)
		for dst := range send {
			send[dst] = []int{c.Rank()*10 + dst}
		}
		req := IAlltoallv(c, packBufs(send))
		sum := Allreduce(c, c.Rank(), func(a, b int) int { return a + b })
		if sum != 6 {
			panic(fmt.Sprintf("allreduce under in-flight alltoallv: %d", sum))
		}
		got := req.WaitValue()
		for src := 0; src < p; src++ {
			if len(got[src]) != 1 || got[src][0] != src*10+c.Rank() {
				panic(fmt.Sprintf("rank %d: bad part from %d: %v", c.Rank(), src, got[src]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPostedIrecvOutlivesWatchdogWhileComputing(t *testing.T) {
	// The overlap schedule posts receives long before the matching sends
	// exist; the deadlock watchdog must not fire while the request is merely
	// posted (it arms only when Wait blocks).
	w := NewWorld(2)
	w.SetRecvTimeout(100 * time.Millisecond)
	err := w.Run(func(c *Comm) {
		const tag = 21
		if c.Rank() == 0 {
			time.Sleep(300 * time.Millisecond) // compute far past the timeout
			Send(c, 1, tag, []int{5})
		} else {
			req := Irecv[int](c, 0, tag)
			time.Sleep(300 * time.Millisecond) // "compute" with the recv posted
			if got := req.WaitValue(); got[0] != 5 {
				panic("bad payload after deferred wait")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitOnOrphanIrecvTripsWatchdog(t *testing.T) {
	// A rank actually blocked in Wait with no matching send must still be
	// caught by the watchdog and surface as a RankError.
	w := NewWorld(1)
	w.SetRecvTimeout(50 * time.Millisecond)
	err := w.Run(func(c *Comm) {
		Irecv[int](c, 0, 99).Wait() // nothing will ever arrive
	})
	if err == nil {
		t.Fatal("expected the watchdog to fire through Wait")
	}
	if !strings.Contains(err.Error(), "deadlocked") {
		t.Fatalf("unexpected error: %v", err)
	}
}
