package spmat

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/mpi/transport"
)

// recordingEndpoint keeps every payload its rank sends beside a copy taken at
// send time, so a test can prove after the run that nobody wrote to a frame
// once it left its sender — in process, the receivers hold the very same
// bytes.
type recordingEndpoint struct {
	transport.Transport
	mu   *sync.Mutex
	sent *[][2][]byte
}

func (e recordingEndpoint) Send(dst int, m transport.Message) error {
	e.mu.Lock()
	*e.sent = append(*e.sent, [2][]byte{m.Payload, bytes.Clone(m.Payload)})
	e.mu.Unlock()
	return e.Transport.Send(dst, m)
}

// TestSpGEMMLeavesBroadcastFramesIntact: every rank multiplies views of the
// panel frame it received — in process, the root's own frame, shared by
// reference down the broadcast tree — so after SpGEMMCounted under the zero
// and checkerboard masks, SpGEMMInto under a pattern mask (of a rectangular
// product, and of a square matrix times itself, whose one frame is broadcast
// as both operands) and SpGEMMPanels over FromRows' frames (the Aᵀ frame
// crosses the transposed swap before its receiver broadcasts it), in both
// request modes, every frame's bytes must equal their value when it was sent,
// right after it was built. Run it under -race too: a write to a shared view
// races with the other ranks' reads.
func TestSpGEMMLeavesBroadcastFramesIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	nr, k, nc := int32(90), int32(24), int32(80)
	aT := parityTriples(rng, nr, k, 0.3)
	bT := globalTriples(rng, k, nc, 0.3)
	sT := globalTriples(rng, nr, nr, 0.1)
	patT := patternOf(nr, nc, func(r, c int32) bool { return (r+2*c)%3 != 0 })
	masks := map[string]func(a, b, s *Dist[int64]){
		"zero":         func(a, b, _ *Dist[int64]) { SpGEMMCounted(a, b, plusTimes, Mask{}, nil) },
		"checkerboard": func(a, b, _ *Dist[int64]) { SpGEMMCounted(a, b, plusTimes, Checkerboard(), nil) },
		"pattern": func(a, b, s *Dist[int64]) {
			into(a, b, plusTimes, FromGlobalTriples(a.G, nr, nc, patT, nil), nil)
			into(s, s, plusTimes, s, nil)
		},
	}
	for name, multiply := range masks {
		for _, p := range []int{4, 16} {
			var mu sync.Mutex
			var sent [][2][]byte
			eps := transport.NewInproc(p)
			wrapped := make([]transport.Transport, p)
			for i, ep := range eps {
				wrapped[i] = recordingEndpoint{Transport: ep, mu: &mu, sent: &sent}
			}
			err := mpi.NewWorldTransport(wrapped...).Run(func(c *mpi.Comm) {
				g := grid.New(c)
				a := FromGlobalTriples(g, nr, k, aT, nil)
				b := FromGlobalTriples(g, k, nc, bT, nil)
				s := FromGlobalTriples(g, nr, nr, sT, nil)
				lo, hi := g.MyVecRange(int(nr))
				panels := FromRows(g, nr, k, rowsOf(aT, lo, hi))
				for _, async := range []bool{false, true} {
					mpitest.InMode(c, async, func() {
						multiply(a, b, s)
						SpGEMMPanels(panels, plusTimes, nil)
					})
				}
			})
			if err != nil {
				t.Fatalf("mask=%s P=%d: %v", name, p, err)
			}
			panels := 0
			for i, s := range sent {
				if !bytes.Equal(s[0], s[1]) {
					t.Fatalf("mask=%s P=%d: frame %d changed after it was sent", name, p, i)
				}
				if len(s[0]) > 8 && s[0][1] == 2 { // an aligned frame with a payload: a panel
					panels++
				}
			}
			if panels == 0 {
				t.Fatalf("mask=%s P=%d: no panel frame crossed the transport", name, p)
			}
		}
	}
}

// TestDecodePanelAlignment: a panel frame whose base lies 1 byte off an
// 8-byte boundary is refused, not copied; the empty panel has no arrays to
// align and decodes at any address.
func TestDecodePanelAlignment(t *testing.T) {
	ts := []Triple[uint32]{{Row: 0, Col: 3, Val: 7}, {Row: 5, Col: 3, Val: 8}, {Row: 2, Col: 9, Val: 9}}
	for _, split := range []bool{false, true} {
		frame := frameOf(ts, 0, 16, split)
		if _, err := decodePanel[uint32](frame, 0, 16, 0, 8, split); err != nil {
			t.Fatalf("split=%v: aligned frame refused: %v", split, err)
		}
		off := make([]byte, len(frame)+16)[1 : 1+len(frame)] // ≥ 16 bytes: 8-aligned base
		copy(off, frame)
		if _, err := decodePanel[uint32](off, 0, 16, 0, 8, split); err == nil || !strings.Contains(err.Error(), "aligned") {
			t.Errorf("split=%v: frame 1 byte off decoded, error %v", split, err)
		}
	}
	empty := frameOf[uint32](nil, 0, 16, true)
	off := make([]byte, len(empty)+16)[1 : 1+len(empty)]
	copy(off, empty)
	if p, err := decodePanel[uint32](off, 0, 16, 0, 8, true); err != nil || len(p.cols)+len(p.rows) != 0 {
		t.Errorf("empty panel 1 byte off: %+v, %v", p, err)
	}
}

// triples lists a decoded panel's entries in canonical order, merging a split
// run's two sub-runs back into one ascending run; it reports an entry out of
// column-major order, or outside cols [colLo, colHi) × rows [rowLo, rowHi),
// as an error — checked here independently of decodePanel's own pass.
func (p panel[T]) triples(colLo, colHi, rowLo, rowHi int32) ([]Triple[T], error) {
	var ts []Triple[T]
	for r, c := range p.cols {
		lo, hi := p.starts[r], p.starts[r+1]
		mid := hi
		if p.mid != nil {
			mid = p.mid[r]
		}
		i, j := lo, mid
		for i < mid || j < hi {
			e := i
			if i == mid || j < hi && p.rows[j] < p.rows[i] {
				e, j = j, j+1
			} else {
				i++
			}
			ts = append(ts, Triple[T]{Row: p.rows[e], Col: c, Val: p.vals[e]})
		}
	}
	return ts, CheckRowMajor(transposed(ts), colLo, colHi, rowLo, rowHi)
}

// transposed swaps Row and Col, so a column-major list is row-major.
func transposed[T any](ts []Triple[T]) []Triple[T] {
	out := make([]Triple[T], len(ts))
	for i, t := range ts {
		out[i] = Triple[T]{Row: t.Col, Col: t.Row, Val: t.Val}
	}
	return out
}

// FuzzDecodePanel feeds arbitrary bytes, placed off an 8-byte boundary by
// off%8, to the panel decoder, split and unsplit, for columns [2, 40) and
// rows [0, 64): it must return an error or views that hold a canonical block
// inside that span — every split sub-run of one parity — from an 8-byte
// aligned frame, and that re-encode to the same bytes. It must never panic.
func FuzzDecodePanel(f *testing.F) {
	const colLo, colHi, rowLo, rowHi = 2, 40, 0, 64
	ts := []Triple[uint32]{{Row: 1, Col: 2, Val: 10}, {Row: 4, Col: 2, Val: 11}, {Row: 7, Col: 2, Val: 12}, {Row: 63, Col: 39, Val: 13}}
	f.Add(frameOf(ts, colLo, colHi, true), uint8(0))
	f.Add(frameOf(ts, colLo, colHi, false), uint8(0))
	f.Add(frameOf(ts, colLo, colHi, false), uint8(1))
	f.Add(frameOf[uint32](nil, colLo, colHi, false), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		buf := make([]byte, len(data)+16) // ≥ 16 bytes: 8-aligned base
		frame := buf[off%8 : int(off%8)+len(data)]
		copy(frame, data)
		for _, split := range []bool{false, true} {
			p, err := decodePanel[uint32](frame, colLo, colHi, rowLo, rowHi, split)
			if err != nil {
				continue
			}
			if off%8 != 0 && len(frame) > 8 {
				t.Fatalf("split=%v: a non-empty frame %d bytes off alignment decoded", split, off%8)
			}
			for r := range p.mid {
				for e := p.starts[r]; e < p.starts[r+1]; e++ {
					if odd := e >= p.mid[r]; (p.rows[e]&1 == 1) != odd {
						t.Fatalf("row %d sits in the wrong parity sub-run of column %d", p.rows[e], p.cols[r])
					}
				}
			}
			ts, err := p.triples(colLo, colHi, rowLo, rowHi)
			if err != nil {
				t.Fatalf("split=%v: decoded panel is not canonical: %v", split, err)
			}
			if again := frameOf(ts, colLo, colHi, split); !bytes.Equal(again, frame) {
				t.Fatalf("split=%v: re-encoded\n%x\nwant\n%x", split, again, frame)
			}
		}
	})
}

// frameOf is the panel frame of a canonical block over columns
// [colLo, colHi), scattered as one part.
func frameOf[T any](ts []Triple[T], colLo, colHi int32, split bool) []byte {
	frame, _ := scatterPanel([][]Triple[T]{ts}, colLo, colHi, split)
	return frame
}

// TestPanelRoundTrip: an encoded canonical block decodes to its own entries,
// split or not, for a dense value type and for a padded one that decodes into
// a copy; and the same block cut at random row boundaries into row-grouped
// parts whose rows ascend across them, empty parts included — FromRows'
// shape — scatters to the same frame bytes.
func TestPanelRoundTrip(t *testing.T) {
	type padded struct {
		Tag uint8
		V   int32
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		var ts []Triple[padded]
		var dense []Triple[int64]
		for c := int32(0); c < 30; c++ {
			for r := int32(0); r < 50; r++ {
				if rng.Intn(5) == 0 {
					ts = append(ts, Triple[padded]{Row: r, Col: c, Val: padded{uint8(r), c * r}})
					dense = append(dense, Triple[int64]{Row: r, Col: c, Val: int64(c*r) << 32})
				}
			}
		}
		roundTrip(t, rng, trial, ts)
		roundTrip(t, rng, trial, dense)
	}
}

// roundTrip is TestPanelRoundTrip's check of one canonical block over
// columns [0, 30) × rows [0, 50).
func roundTrip[T any](t *testing.T, rng *rand.Rand, trial int, ts []Triple[T]) {
	t.Helper()
	parts := rowParts(rng, ts)
	for _, split := range []bool{false, true} {
		frame := frameOf(ts, 0, 30, split)
		p, err := decodePanel[T](frame, 0, 30, 0, 50, split)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.triples(0, 30, 0, 50)
		if err != nil || fmt.Sprint(got) != fmt.Sprint(ts) {
			t.Fatalf("trial %d %T split=%v: round trip %v, %v", trial, *new(T), split, got, err)
		}
		if cut, _ := scatterPanel(parts, 0, 30, split); !bytes.Equal(cut, frame) {
			t.Fatalf("trial %d %T split=%v: the block cut into %d row parts scatters to\n%x\nwant\n%x", trial, *new(T), split, len(parts), cut, frame)
		}
	}
}

// rowParts regroups ts by row, each row's columns in random order, and cuts
// it at random row boundaries, the ends included, into parts — none, one or
// more of them empty at each cut.
func rowParts[T any](rng *rand.Rand, ts []Triple[T]) [][]Triple[T] {
	rows := slices.Clone(ts)
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	slices.SortStableFunc(rows, func(x, y Triple[T]) int { return cmp.Compare(x.Row, y.Row) })
	var parts [][]Triple[T]
	lo := 0
	for i := 0; i <= len(rows); i++ {
		if i > 0 && i < len(rows) && rows[i].Row == rows[i-1].Row {
			continue
		}
		for rng.Intn(3) == 0 {
			parts, lo = append(parts, rows[lo:i]), i
		}
	}
	return append(parts, rows[lo:])
}
