package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 9, 16}

func forSizes(t *testing.T, fn func(t *testing.T, p int)) {
	t.Helper()
	for _, p := range testSizes {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) { fn(t, p) })
	}
}

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 7, []int{1, 2, 3})
		} else {
			got := Recv[int](c, 0, 7)
			if !reflect.DeepEqual(got, []int{1, 2, 3}) {
				panic(fmt.Sprintf("got %v", got))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []int{1, 2, 3}
			Send(c, 1, 0, buf)
			buf[0] = 99 // must not be visible to the receiver
			Send(c, 1, 1, []int{0})
		} else {
			got := Recv[int](c, 0, 0)
			Recv[int](c, 0, 1)
			if got[0] != 1 {
				panic("send did not copy its payload")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMatchingOutOfOrder(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 100, []byte("first"))
			Send(c, 1, 200, []byte("second"))
		} else {
			// Receive in reverse tag order.
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
}

func TestRecvFIFOWithinTag(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				Send(c, 1, 5, []int{i})
			}
		} else {
			for i := 0; i < 10; i++ {
				got := Recv[int](c, 0, 5)
				if got[0] != i {
					panic(fmt.Sprintf("FIFO violated: want %d got %d", i, got[0]))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	err := Run(3, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("expected error")
	}
	re, ok := err.(*RankError)
	if !ok || re.Rank != 1 {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestBarrier(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		var mu sync.Mutex
		phase := make([]int, p)
		err := Run(p, func(c *Comm) {
			mu.Lock()
			phase[c.Rank()] = 1
			mu.Unlock()
			Barrier(c)
			mu.Lock()
			for r, v := range phase {
				if v != 1 {
					panic(fmt.Sprintf("rank %d passed barrier before rank %d arrived", c.Rank(), r))
				}
			}
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBcast(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		for root := 0; root < p; root++ {
			err := Run(p, func(c *Comm) {
				var data []int32
				if c.Rank() == root {
					data = []int32{int32(root), 42, -7}
				}
				got := Bcast(c, root, data)
				want := []int32{int32(root), 42, -7}
				if !reflect.DeepEqual(got, want) {
					panic(fmt.Sprintf("rank %d: got %v want %v", c.Rank(), got, want))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestGatherAndGatherv(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		err := Run(p, func(c *Comm) {
			// One value per rank is a one-element Gatherv.
			got := Gatherv(c, 0, []int{c.Rank() * 10})
			if c.Rank() == 0 {
				for r := 0; r < p; r++ {
					if len(got[r]) != 1 || got[r][0] != r*10 {
						panic("gather wrong")
					}
				}
			}
			// Variable-length: rank r contributes r elements.
			local := make([]int, c.Rank())
			for i := range local {
				local[i] = c.Rank()
			}
			gv := Gatherv(c, 0, local)
			if c.Rank() == 0 {
				for r := 0; r < p; r++ {
					if len(gv[r]) != r {
						panic("gatherv count wrong")
					}
					for _, v := range gv[r] {
						if v != r {
							panic("gatherv value wrong")
						}
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestScatterv(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		err := Run(p, func(c *Comm) {
			var parts [][]string
			if c.Rank() == 0 {
				parts = make([][]string, p)
				for r := range parts {
					for i := 0; i <= r; i++ {
						parts[r] = append(parts[r], fmt.Sprintf("%d-%d", r, i))
					}
				}
			}
			got := Scatterv(c, 0, parts)
			if len(got) != c.Rank()+1 {
				panic("scatterv count wrong")
			}
			if got[0] != fmt.Sprintf("%d-0", c.Rank()) {
				panic("scatterv value wrong")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllgatherAndAllgatherv(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		err := Run(p, func(c *Comm) {
			all := Allgather(c, int64(c.Rank()*c.Rank()))
			for r := 0; r < p; r++ {
				if all[r] != int64(r*r) {
					panic("allgather wrong")
				}
			}
			local := make([]int32, (c.Rank()%3)+1)
			for i := range local {
				local[i] = int32(c.Rank())
			}
			sent := c.MsgsSent()
			parts := Allgatherv(c, local)
			if n := c.MsgsSent() - sent; n != int64(p-1) {
				panic(fmt.Sprintf("allgatherv sent %d messages, want %d", n, p-1))
			}
			if &parts[c.Rank()][0] != &local[0] {
				panic("allgatherv copied the rank's own part")
			}
			for r := 0; r < p; r++ {
				if len(parts[r]) != (r%3)+1 {
					panic("allgatherv count wrong")
				}
				for _, v := range parts[r] {
					if v != int32(r) {
						panic("allgatherv value wrong")
					}
				}
			}
			flat, counts := AllgathervFlat(c, local)
			want := 0
			for r := 0; r < p; r++ {
				want += (r % 3) + 1
				if counts[r] != (r%3)+1 {
					panic("flat counts wrong")
				}
			}
			if len(flat) != want {
				panic("flat length wrong")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAlltoallv(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		err := Run(p, func(c *Comm) {
			send := make([][]int, p)
			for r := 0; r < p; r++ {
				// rank i sends (i+1)*(r+1) copies of i*100+r to rank r
				n := (c.Rank() + 1) * (r + 1) % 5
				for k := 0; k < n; k++ {
					send[r] = append(send[r], c.Rank()*100+r)
				}
			}
			recv := Alltoallv(c, send)
			for r := 0; r < p; r++ {
				wantN := (r + 1) * (c.Rank() + 1) % 5
				if len(recv[r]) != wantN {
					panic(fmt.Sprintf("alltoallv count from %d: got %d want %d", r, len(recv[r]), wantN))
				}
				for _, v := range recv[r] {
					if v != r*100+c.Rank() {
						panic("alltoallv value wrong")
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAlltoallvChunkedHonoursLimit(t *testing.T) {
	old := MaxMessageBytes
	MaxMessageBytes = 64 // force chunking of anything bigger than 64 bytes
	defer func() { MaxMessageBytes = old }()
	p := 4
	err := Run(p, func(c *Comm) {
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
}

func TestSendPanicsOverLimit(t *testing.T) {
	old := MaxMessageBytes
	MaxMessageBytes = 16
	defer func() { MaxMessageBytes = old }()
	w := NewWorld(2)
	// Rank 1 will block forever once rank 0's send panics; keep the
	// watchdog short so the test finishes promptly.
	w.SetRecvTimeout(200 * time.Millisecond)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 0, make([]int64, 100)) // 800 bytes > 16
		} else {
			Recv[int64](c, 0, 0)
		}
	})
	if err == nil {
		t.Fatal("expected over-limit send to panic")
	}
}

// A variable-width element has no chunk size: SendChunked refuses it before
// the count goes out, naming the type, instead of panicking mid-stream once
// a chunk of long strings overruns the limit.
func TestSendChunkedRefusesVariableWidth(t *testing.T) {
	defer func(old int64) { MaxMessageBytes = old }(MaxMessageBytes)
	MaxMessageBytes = 64
	w := NewWorld(2)
	var msg string
	err := w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		defer func() { msg = fmt.Sprint(recover()) }()
		long := string(make([]byte, 40))
		SendChunked(c, 1, 0, []string{long, long, long})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "SendChunked of string") {
		t.Errorf("panic %q does not name the element type", msg)
	}
	if w.TotalMsgs() != 0 {
		t.Errorf("%d messages sent before the refusal, want 0", w.TotalMsgs())
	}
}

func TestReduceAllreduce(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		for root := 0; root < p; root += 2 {
			err := Run(p, func(c *Comm) {
				sum := Reduce(c, root, c.Rank()+1, func(a, b int) int { return a + b })
				if c.Rank() == root && sum != p*(p+1)/2 {
					panic(fmt.Sprintf("reduce sum: got %d want %d", sum, p*(p+1)/2))
				}
				mx := Allreduce(c, c.Rank(), func(a, b int) int {
					if a > b {
						return a
					}
					return b
				})
				if mx != p-1 {
					panic("allreduce max wrong")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestReduceSliceAndAllreduceSlice(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		err := Run(p, func(c *Comm) {
			vals := []int64{int64(c.Rank()), int64(c.Rank() * 2), 1}
			got := AllreduceSlice(c, vals, func(a, b int64) int64 { return a + b })
			wantSum := int64(p * (p - 1) / 2)
			if got[0] != wantSum || got[1] != 2*wantSum || got[2] != int64(p) {
				panic(fmt.Sprintf("allreduce slice wrong: %v", got))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestReduceScatterBlocks(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		err := Run(p, func(c *Comm) {
			// Every rank contributes a block of 3 values for every rank:
			// contrib[r][k] = rank*1000 + r*10 + k.
			contrib := make([][]int, p)
			for r := 0; r < p; r++ {
				contrib[r] = []int{c.Rank()*1000 + r*10, c.Rank()*1000 + r*10 + 1, c.Rank()*1000 + r*10 + 2}
			}
			got := ReduceScatterBlocks(c, contrib, func(a, b int) int { return a + b })
			// Expected: sum over ranks i of i*1000 + myrank*10 + k.
			base := 1000 * (p * (p - 1) / 2)
			for k := 0; k < 3; k++ {
				want := base + p*(c.Rank()*10+k)
				if got[k] != want {
					panic(fmt.Sprintf("reduce-scatter: got %d want %d", got[k], want))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestExscan(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		err := Run(p, func(c *Comm) {
			got := Exscan(c, c.Rank()+1, func(a, b int) int { return a + b })
			want := c.Rank() * (c.Rank() + 1) / 2
			if got != want {
				panic(fmt.Sprintf("exscan rank %d: got %d want %d", c.Rank(), got, want))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestSplitRowsAndCols(t *testing.T) {
	// 3x3 grid: split world into row and column communicators and verify
	// collectives stay inside the subgroup.
	p, dim := 9, 3
	err := Run(p, func(c *Comm) {
		row, col := c.Rank()/dim, c.Rank()%dim
		rowComm := c.Split(row, col)
		colComm := c.Split(col, row)
		if rowComm.Size() != dim || colComm.Size() != dim {
			panic("split size wrong")
		}
		if rowComm.Rank() != col || colComm.Rank() != row {
			panic("split rank ordering wrong")
		}
		sum := Allreduce(rowComm, c.Rank(), func(a, b int) int { return a + b })
		wantRow := 0
		for j := 0; j < dim; j++ {
			wantRow += row*dim + j
		}
		if sum != wantRow {
			panic(fmt.Sprintf("row allreduce: got %d want %d", sum, wantRow))
		}
		sumC := Allreduce(colComm, c.Rank(), func(a, b int) int { return a + b })
		wantCol := 0
		for i := 0; i < dim; i++ {
			wantCol += i*dim + col
		}
		if sumC != wantCol {
			panic(fmt.Sprintf("col allreduce: got %d want %d", sumC, wantCol))
		}
		// Concurrent collectives on row and col comms must not cross-match.
		a := Bcast(rowComm, 0, []int{row * 111})
		b := Bcast(colComm, 0, []int{col * 222})
		if a[0] != row*111 || b[0] != col*222 {
			panic("split contexts interfered")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByKeyReordering(t *testing.T) {
	p := 6
	err := Run(p, func(c *Comm) {
		// All same color, keys reverse the order.
		sub := c.Split(0, -c.Rank())
		if sub.Size() != p {
			panic("size")
		}
		if sub.Rank() != p-1-c.Rank() {
			panic(fmt.Sprintf("key reorder wrong: world %d got sub rank %d", c.Rank(), sub.Rank()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCountTraffic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 0, make([]int64, 10)) // 80 bytes
		} else {
			Recv[int64](c, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st[0].MsgsSent != 1 || st[0].BytesSent != 80 {
		t.Fatalf("stats: %+v", st[0])
	}
	if w.TotalBytes() != 80 {
		t.Fatalf("total: %d", w.TotalBytes())
	}
}

func TestDeadlockWatchdog(t *testing.T) {
	w := NewWorld(2)
	w.SetRecvTimeout(200 * time.Millisecond)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			Recv[int](c, 1, 99) // never sent
		}
	})
	if err == nil {
		t.Fatal("expected deadlock panic")
	}
}

// TestCollectivesMatchSequentialReference drives the collectives over
// random per-rank inputs and checks them against a sequential model. One
// more input puts every part over MaxMessageBytes = 64 at P 4 and 9, where
// each collective, in a subtest of its own, must chunk, and compares it with
// the unlimited run.
func TestCollectivesMatchSequentialReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testSizes[rng.Intn(len(testSizes))]
		return newCollectiveModel(randomInputs(rng, p, rng.Intn(20)+1)).run(collectiveChecks...) == nil
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	defer func(old int64) { MaxMessageBytes = old }(MaxMessageBytes)
	unlimited := MaxMessageBytes
	for _, p := range []int{4, 9} {
		m := newCollectiveModel(randomInputs(rand.New(rand.NewSource(int64(p))), p, 20)) // 160 bytes a part
		for _, cc := range collectiveChecks {
			t.Run(fmt.Sprintf("MaxMessageBytes=64/P=%d/%s", p, cc.name), func(t *testing.T) {
				for _, limit := range []int64{unlimited, 64} {
					MaxMessageBytes = limit
					if err := m.run(cc); err != nil {
						t.Fatalf("MaxMessageBytes=%d: %v", limit, err)
					}
				}
			})
		}
	}
}

func randomInputs(rng *rand.Rand, p, n int) [][]int {
	inputs := make([][]int, p)
	for r := range inputs {
		inputs[r] = make([]int, n)
		for i := range inputs[r] {
			inputs[r][i] = rng.Intn(1000) - 500
		}
	}
	return inputs
}

// collectiveModel is the sequential model of the collectives over one []int
// per rank: rank r holds inputs[r].
type collectiveModel struct {
	inputs    [][]int
	min, flat []int // element-wise min; inputs concatenated
	counts    []int
}

func newCollectiveModel(inputs [][]int) *collectiveModel {
	m := &collectiveModel{inputs: inputs, min: slices.Clone(inputs[0]), flat: slices.Concat(inputs...)}
	for _, in := range inputs {
		for i := range m.min {
			m.min[i] = min(m.min[i], in[i])
		}
		m.counts = append(m.counts, len(in))
	}
	return m
}

func minInt(a, b int) int { return min(a, b) }

// collectiveCheck runs one collective on a rank and returns its result and
// the model's.
type collectiveCheck struct {
	name string
	run  func(c *Comm, m *collectiveModel) (got, want any)
}

var collectiveChecks = []collectiveCheck{
	{"ReduceSlice", func(c *Comm, m *collectiveModel) (any, any) {
		root, want := c.Size()-1, m.min
		if c.Rank() != root {
			want = nil
		}
		return ReduceSlice(c, root, m.inputs[c.Rank()], minInt), want
	}},
	{"AllreduceSlice", func(c *Comm, m *collectiveModel) (any, any) {
		return AllreduceSlice(c, m.inputs[c.Rank()], minInt), m.min
	}},
	{"Allgatherv", func(c *Comm, m *collectiveModel) (any, any) {
		return Allgatherv(c, m.inputs[c.Rank()]), m.inputs
	}},
	{"AllgathervFlat", func(c *Comm, m *collectiveModel) (any, any) {
		flat, counts := AllgathervFlat(c, m.inputs[c.Rank()])
		return [2]any{flat, counts}, [2]any{m.flat, m.counts}
	}},
	{"Gatherv", func(c *Comm, m *collectiveModel) (any, any) {
		want := m.inputs
		if c.Rank() != 0 {
			want = nil
		}
		return Gatherv(c, 0, m.inputs[c.Rank()]), want
	}},
	{"Scatterv", func(c *Comm, m *collectiveModel) (any, any) {
		var parts [][]int
		if c.Rank() == 0 {
			parts = m.inputs
		}
		return Scatterv(c, 0, parts), m.inputs[c.Rank()]
	}},
	{"Bcast", func(c *Comm, m *collectiveModel) (any, any) {
		var data []int
		if c.Rank() == 0 {
			data = m.flat
		}
		return Bcast(c, 0, data), m.flat
	}},
}

// run runs checks in order on one rank per input and fails on the first
// result the model does not predict.
func (m *collectiveModel) run(checks ...collectiveCheck) error {
	return Run(len(m.inputs), func(c *Comm) {
		for _, cc := range checks {
			if got, want := cc.run(c, m); !reflect.DeepEqual(got, want) {
				panic(fmt.Sprintf("rank %d: %s = %v, want %v", c.Rank(), cc.name, got, want))
			}
		}
	})
}

// TestAlltoallvRandomizedRoundtrip checks that data sent in a random
// all-to-all pattern arrives intact, sorted comparison per destination.
func TestAlltoallvRandomizedRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		p := testSizes[rng.Intn(len(testSizes))]
		sends := make([][][]int64, p) // [rank][dest][items]
		for r := 0; r < p; r++ {
			sends[r] = make([][]int64, p)
			for d := 0; d < p; d++ {
				n := rng.Intn(8)
				for k := 0; k < n; k++ {
					sends[r][d] = append(sends[r][d], int64(r)<<32|int64(d)<<16|int64(k))
				}
			}
		}
		var mu sync.Mutex
		received := make([][]int64, p)
		err := Run(p, func(c *Comm) {
			recv := Alltoallv(c, sends[c.Rank()])
			var flat []int64
			for _, part := range recv {
				flat = append(flat, part...)
			}
			mu.Lock()
			received[c.Rank()] = flat
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < p; d++ {
			var want []int64
			for r := 0; r < p; r++ {
				want = append(want, sends[r][d]...)
			}
			got := received[d]
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("P=%d dest=%d: got %v want %v", p, d, got, want)
			}
		}
	}
}
