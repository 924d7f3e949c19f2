package spmat

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mpi/wire"
)

// panel is one SUMMA block as it crosses the wire and as the multiply reads
// it: doubly compressed sparse columns (DCSC), the layout of CombBLAS's
// blocks. Only non-empty columns are stored; column cols[r]'s entries are
// rows[starts[r]:starts[r+1]] with their vals. A split panel — the
// checkerboard's — holds each run's even rows, then its odd rows, both
// ascending, and the odd ones start at mid[r]; any other panel holds each run
// ascending and has no mid. A decoded panel's arrays are read-only views of
// the frame it arrived in (see package wire), values of a non-dense type
// excepted, which decode into a copy.
type panel[T any] struct {
	cols, starts, mid, rows []int32
	vals                    []T
}

// panelLayout places a panel of ncols columns and nnz entries in a frame's
// payload: two uint32 counts (ncols, nnz), then one int32 region holding
// cols, starts, mid (split panels only) and rows, each starting on an even
// word, then the values at their wire width. Every array thus starts a
// multiple of 8 bytes into the payload, so it lies 8-byte aligned in memory
// (see wire.NewAlignedFrame); padding words are zero. The empty panel is the
// empty payload.
type panelLayout struct {
	ncols, nnz              int
	split                   bool
	cols, starts, mid, rows int // word offsets in the int32 region
	words, end              int // the region's words, padding included; the payload's bytes
}

func layoutPanel(ncols, nnz, width int, split bool) panelLayout {
	l := panelLayout{ncols: ncols, nnz: nnz, split: split}
	next := func(n int) int {
		off := l.words
		l.words = (l.words + n + 1) &^ 1
		return off
	}
	l.cols = next(ncols)
	l.starts = next(ncols + 1)
	l.mid = l.words
	if split {
		l.mid = next(ncols)
	}
	l.rows = next(nnz)
	l.end = 8 + 4*l.words + width*nnz
	return l
}

// arrays slices a panel's index arrays out of ints, the int32 region of
// layout l.
func (l panelLayout) arrays(ints []int32) (cols, starts, mid, rows []int32) {
	cols, starts, rows = ints[l.cols:l.cols+l.ncols], ints[l.starts:l.starts+l.ncols+1], ints[l.rows:l.rows+l.nnz]
	if l.split {
		mid = ints[l.mid : l.mid+l.ncols]
	}
	return cols, starts, mid, rows
}

// encodePanel encodes a block as one panel frame — the sender's whole share
// of a SUMMA broadcast, done once however many ranks receive it; split makes
// it a split panel. ts must be canonical (see fill).
func encodePanel[T any](ts []Triple[T], split bool) []byte {
	frame, p := allocPanel[T](countCols(ts), len(ts), split)
	if len(ts) > 0 {
		p.fill(ts)
		p.commit(frame)
	}
	return frame
}

// allocPanel lays a panel of ncols columns and nnz entries out in a fresh
// frame, which nobody else holds yet, and returns the frame and the panel's
// arrays for the caller to fill: views of the frame, except the values of a
// T that is not dense, a slice of their own until commit encodes them. With
// no entries it is the empty panel's frame, and the arrays are nil.
func allocPanel[T any](ncols, nnz int, split bool) ([]byte, panel[T]) {
	if nnz == 0 {
		frame, _ := wire.NewAlignedFrame[T](0)
		return frame, panel[T]{}
	}
	width := wire.Width[T]()
	if width < 0 {
		panic(fmt.Sprintf("spmat: panel values of type %T have no fixed wire width", *new(T)))
	}
	l := layoutPanel(ncols, nnz, width, split)
	frame, buf := wire.NewAlignedFrame[T](l.end)
	binary.LittleEndian.PutUint32(buf, uint32(l.ncols))
	binary.LittleEndian.PutUint32(buf[4:], uint32(l.nnz))
	ints, err := wire.Elems[int32](buf[8:8+4*l.words], l.words)
	p := panel[T]{}
	if wire.Dense[T]() {
		if err == nil {
			p.vals, err = wire.Elems[T](buf[8+4*l.words:], l.nnz)
		}
	} else {
		p.vals = make([]T, l.nnz)
	}
	if err != nil {
		panic(fmt.Sprintf("spmat: panel frame: %v", err))
	}
	p.cols, p.starts, p.mid, p.rows = l.arrays(ints)
	return frame, p
}

// commit encodes the values of a T that is not dense, which allocPanel gave
// p as a slice of their own, into the end of frame, where its layout puts
// them; a dense T's values are the frame already.
func (p panel[T]) commit(frame []byte) {
	if !wire.Dense[T]() {
		wire.AppendElems(frame[len(frame)-wire.Width[T]()*len(p.vals):][:0], p.vals)
	}
}

// scatterPanel writes the block the parts hold, every column in
// [colLo, colHi), as a split panel frame: one stable counting scatter by
// (column, row parity) lists each column's even rows, then its odd rows, in
// the order the parts hold them. Parts whose rows ascend across and within
// them — the senders of a grid row, in rank order — give every sub-run
// ascending; any other order, or a repeated cell, gives a frame decodePanel
// refuses. It returns the frame and the panel's arrays.
func scatterPanel[T any](parts [][]Triple[T], colLo, colHi int32) ([]byte, panel[T]) {
	next := make([]int32, 2*(colHi-colLo)+1) // by (column, parity), shifted one up
	for _, part := range parts {
		for _, t := range part {
			next[2*(t.Col-colLo)+t.Row&1+1]++
		}
	}
	frame, p := allocScattered[T](next, colLo, true)
	for _, part := range parts {
		for _, t := range part {
			k := 2*(t.Col-colLo) + t.Row&1
			p.rows[next[k]], p.vals[next[k]] = t.Row, t.Val
			next[k]++
		}
	}
	p.commit(frame)
	return frame, p
}

// transposePanel writes the transpose of p, whose rows lie in
// [rowLo, rowHi), as an unsplit panel frame: one counting scatter of p's
// entries by row, walking p's columns in ascending order, so that every
// column of the result (a row of p) lists p's columns ascending.
func transposePanel[T any](p panel[T], rowLo, rowHi int32) []byte {
	next := make([]int32, rowHi-rowLo+1) // by row, shifted one up
	for _, r := range p.rows {
		next[r-rowLo+1]++
	}
	frame, q := allocScattered[T](next, rowLo, false)
	for i, c := range p.cols {
		for e := p.starts[i]; e < p.starts[i+1]; e++ {
			k := p.rows[e] - rowLo
			q.rows[next[k]], q.vals[next[k]] = c, p.vals[e]
			next[k]++
		}
	}
	q.commit(frame)
	return frame
}

// allocScattered is allocPanel for a counting scatter whose key counts are
// next[1:]: one key per column from colLo up, or two for a split panel (its
// even rows, then its odd ones). It turns next into each key's first slot
// and fills the panel's column ids, run starts and mids, leaving the rows and
// values to the scatter (and commit).
func allocScattered[T any](next []int32, colLo int32, split bool) ([]byte, panel[T]) {
	stride := 1
	if split {
		stride = 2
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	span, n := (len(next)-1)/stride, int(next[len(next)-1])
	ncols := 0
	for c := range span {
		if next[(c+1)*stride] > next[c*stride] {
			ncols++
		}
	}
	frame, p := allocPanel[T](ncols, n, split)
	if n == 0 {
		return frame, p
	}
	r := 0
	for c := range span {
		if lo := next[c*stride]; next[(c+1)*stride] > lo {
			p.cols[r], p.starts[r] = colLo+int32(c), lo
			if split {
				p.mid[r] = next[c*stride+1]
			}
			r++
		}
	}
	p.starts[ncols] = int32(n)
	return frame, p
}

// newPanel is the unsplit panel of a canonical block held locally, in
// memory of its own.
func newPanel[T any](ts []Triple[T]) panel[T] {
	l := layoutPanel(countCols(ts), len(ts), 0, false)
	p := panel[T]{vals: make([]T, l.nnz)}
	p.cols, p.starts, p.mid, p.rows = l.arrays(make([]int32, l.words))
	p.fill(ts)
	return p
}

// countCols is the number of distinct columns of a column-clustered block.
func countCols[T any](ts []Triple[T]) int {
	n := min(len(ts), 1)
	for i := 1; i < len(ts); i++ {
		if ts[i].Col != ts[i-1].Col {
			n++
		}
	}
	return n
}

// fill writes the arrays of the panel of ts into p, which is sized for it
// and split when p.mid is not nil. ts must be canonical (columns ascending,
// rows strictly ascending within each): a block that is not panics here, on
// the rank that holds it.
func (p panel[T]) fill(ts []Triple[T]) {
	e := 0
	for r, lo := 0, 0; lo < len(ts); r++ {
		hi := runEnd(ts, lo)
		col := ts[lo].Col
		if lo > 0 && col < ts[lo-1].Col {
			panic(fmt.Sprintf("spmat: SUMMA panel column %d after %d is not column-major", col, ts[lo-1].Col))
		}
		run := ts[lo:hi]
		for i := 1; i < len(run); i++ {
			if run[i].Row <= run[i-1].Row {
				panic(fmt.Sprintf("spmat: SUMMA panel row %d after %d in column %d does not strictly ascend", run[i].Row, run[i-1].Row, col))
			}
		}
		p.cols[r], p.starts[r] = col, int32(e)
		if p.mid != nil {
			for _, t := range run {
				if t.Row&1 == 0 {
					p.rows[e], p.vals[e] = t.Row, t.Val
					e++
				}
			}
			p.mid[r] = int32(e)
			for _, t := range run {
				if t.Row&1 == 1 {
					p.rows[e], p.vals[e] = t.Row, t.Val
					e++
				}
			}
		} else {
			for _, t := range run {
				p.rows[e], p.vals[e] = t.Row, t.Val
				e++
			}
		}
		lo = hi
	}
	p.starts[len(p.cols)] = int32(e)
}

// decodePanel returns the panel a frame holds as views of the frame, after
// one linear pass that checks everything the multiply relies on, since the
// frame came from another rank: the frame is a panel frame of T of exactly
// its layout's length with zero padding; column ids strictly ascend inside
// [colLo, colHi); run starts open at 0, strictly ascend (no empty run) and end
// at len(rows); each mid lies inside its run; rows strictly ascend within each
// run (each sub-run of a split panel, whose rows must have the sub-run's
// parity) and lie in [rowLo, rowHi). A frame failing any of them is an error,
// never a partial panel.
func decodePanel[T any](frame []byte, colLo, colHi, rowLo, rowHi int32, split bool) (panel[T], error) {
	var p panel[T]
	buf, err := wire.AlignedPayload[T](frame)
	if err != nil || len(buf) == 0 {
		return p, err
	}
	width := wire.Width[T]()
	if width < 0 {
		return p, fmt.Errorf("panel values of type %T have no fixed wire width", *new(T))
	}
	if len(buf) < 8 {
		return p, fmt.Errorf("panel payload of %d bytes has no counts", len(buf))
	}
	ncols, nnz := int(binary.LittleEndian.Uint32(buf)), int(binary.LittleEndian.Uint32(buf[4:]))
	if ncols == 0 || ncols > nnz || nnz > len(buf)/4 {
		return p, fmt.Errorf("panel counts %d columns, %d entries in %d bytes", ncols, nnz, len(buf))
	}
	l := layoutPanel(ncols, nnz, width, split)
	if l.end != len(buf) {
		return p, fmt.Errorf("panel of %d columns, %d entries has %d payload bytes, want %d", ncols, nnz, len(buf), l.end)
	}
	ints, err := wire.Elems[int32](buf[8:8+4*l.words], l.words)
	if err != nil {
		return p, err
	}
	if p.vals, err = wire.Elems[T](buf[8+4*l.words:], nnz); err != nil {
		return panel[T]{}, err
	}
	p.cols, p.starts, p.mid, p.rows = l.arrays(ints)
	for _, gap := range [][2]int{{l.cols + ncols, l.starts}, {l.starts + ncols + 1, l.mid}, {l.mid + len(p.mid), l.rows}, {l.rows + nnz, l.words}} {
		for _, w := range ints[gap[0]:gap[1]] {
			if w != 0 {
				return panel[T]{}, fmt.Errorf("panel padding word %d is not zero", gap[0])
			}
		}
	}
	if err := p.check(colLo, colHi, rowLo, rowHi); err != nil {
		return panel[T]{}, err
	}
	return p, nil
}

// check is decodePanel's validation pass over the decoded arrays.
func (p panel[T]) check(colLo, colHi, rowLo, rowHi int32) error {
	prev := colLo - 1
	for _, c := range p.cols {
		if c <= prev || c >= colHi {
			return fmt.Errorf("SUMMA panel column %d after %d is outside [%d,%d) or not ascending", c, prev, colLo, colHi)
		}
		prev = c
	}
	if p.starts[0] != 0 || int(p.starts[len(p.cols)]) != len(p.rows) {
		return fmt.Errorf("SUMMA panel run starts span [%d,%d), want [0,%d)", p.starts[0], p.starts[len(p.cols)], len(p.rows))
	}
	for r, c := range p.cols {
		if p.starts[r+1] <= p.starts[r] {
			return fmt.Errorf("SUMMA panel run of column %d spans [%d,%d)", c, p.starts[r], p.starts[r+1])
		}
	}
	for r, c := range p.cols {
		lo, hi := p.starts[r], p.starts[r+1]
		if p.mid == nil {
			if err := checkRun(p.rows[lo:hi], c, -1, rowLo, rowHi); err != nil {
				return err
			}
			continue
		}
		m := p.mid[r]
		if m < lo || m > hi {
			return fmt.Errorf("SUMMA panel column %d splits at %d outside its run [%d,%d)", c, m, lo, hi)
		}
		if err := checkRun(p.rows[lo:m], c, 0, rowLo, rowHi); err != nil {
			return err
		}
		if err := checkRun(p.rows[m:hi], c, 1, rowLo, rowHi); err != nil {
			return err
		}
	}
	return nil
}

// checkRun checks that rows, one (sub-)run of column c, strictly ascend
// inside [rowLo, rowHi) and, unless parity is -1, all have that parity.
func checkRun(rows []int32, c, parity, rowLo, rowHi int32) error {
	prev := rowLo - 1
	for _, r := range rows {
		if r < rowLo || r >= rowHi {
			return fmt.Errorf("SUMMA panel row %d in column %d is outside [%d,%d)", r, c, rowLo, rowHi)
		}
		if r <= prev {
			return fmt.Errorf("SUMMA panel row %d after %d in column %d does not strictly ascend", r, prev, c)
		}
		if parity >= 0 && r&1 != parity {
			return fmt.Errorf("SUMMA panel row %d in column %d has the wrong parity for its sub-run", r, c)
		}
		prev = r
	}
	return nil
}
