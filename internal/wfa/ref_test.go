package wfa

// extendRef is the reference oracle for Extend: the three-component
// (gap-affine shaped) wavefront kernel this package shipped before the
// M-only ring-buffer rewrite, kept verbatim apart from taking its penalties
// as an argument, fixing the gap-opening penalty at the 0 every caller used,
// and returning its work counter plus the share of it spent on the I and D
// components (idCells), which is exactly what Extend no longer computes. It
// allocates three fresh slices per score step and walks match runs a byte at
// a time; the differential and fuzz tests hold Extend to it bit for bit.

type refWave struct {
	lo  int32
	off []int32
}

func (w refWave) empty() bool { return len(w.off) == 0 }

func (w refWave) get(k int32) int32 {
	if idx := k - w.lo; idx >= 0 && idx < int32(len(w.off)) {
		return w.off[idx]
	}
	return none
}

func maxOff(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func extendRef(p Params, s, t []byte) (score, si, ti int32, cells, idCells int64) {
	ns, nt := int32(len(s)), int32(len(t))
	if ns == 0 || nt == 0 {
		return 0, 0, 0, 0, 0
	}
	// oe is open+extend with a free opening: I and D read the same level as
	// M's gap-closing move.
	x, oe, e := p.Mismatch, p.GapExt, p.GapExt
	lookback := x
	if oe > lookback {
		lookback = oe
	}
	drop2 := 2 * p.Drop

	var m, i, d []refWave

	// best2 is the doubled classic score of the best cell seen; ties break
	// like the x-drop: furthest v+h, then furthest v.
	best2, bv, bh := int32(0), int32(0), int32(0)
	better := func(s2, v, h int32) bool {
		if s2 != best2 {
			return s2 > best2
		}
		if v+h != bv+bh {
			return v+h > bv+bh
		}
		return v > bv
	}
	// scan match-extends one wave along its diagonals, updates the best
	// cell, applies the adaptive prune, and reports whether the wave is
	// still live.
	scan := func(w *refWave, q int32, isM bool) bool {
		live := false
		liveLo, liveHi := int32(len(w.off)), int32(-1)
		for idx := range w.off {
			h := w.off[idx]
			if h <= none/2 {
				continue
			}
			k := w.lo + int32(idx)
			if isM {
				// Furthest-reaching match run.
				for h < nt && h-k < ns && s[h-k] == t[h] {
					h++
					cells++
				}
				w.off[idx] = h
				if s2 := p.Match*(2*h-k) - q; better(s2, h-k, h) {
					best2, bv, bh = s2, h-k, h
				}
			}
			// Adaptive prune: the x-drop rule in dual space.
			if p.Match*(2*h-k)-q < best2-drop2 {
				w.off[idx] = none
				continue
			}
			live = true
			if int32(idx) < liveLo {
				liveLo = int32(idx)
			}
			if int32(idx) > liveHi {
				liveHi = int32(idx)
			}
		}
		if !live {
			*w = refWave{}
			return false
		}
		w.lo, w.off = w.lo+liveLo, w.off[liveLo:liveHi+1]
		return true
	}
	at := func(c []refWave, q int32) refWave {
		if q < 0 || q >= int32(len(c)) {
			return refWave{}
		}
		return c[q]
	}

	// Penalty 0: the single cell (0,0) in M; I and D start empty.
	m = append(m, refWave{lo: 0, off: []int32{0}})
	i = append(i, refWave{})
	d = append(d, refWave{})
	cells++
	scan(&m[0], 0, true)
	lastLive := int32(0)

	// Safety cap: beyond it every cell's dual score is under best2 − drop2
	// (best2 ≥ 0), so the prune has necessarily emptied all wavefronts.
	qcap := p.Match*(ns+nt) + drop2 + lookback + 1
	for q := int32(1); q-lastLive <= lookback && q < qcap; q++ {
		mx, mo := at(m, q-x), at(m, q-oe)
		ie, de := at(i, q-e), at(d, q-e)
		lo, hi := int32(1)<<30, int32(-1)<<30
		span := func(slo, shi, dk int32) {
			if slo+dk < lo {
				lo = slo + dk
			}
			if shi+dk > hi {
				hi = shi + dk
			}
		}
		if !mx.empty() {
			span(mx.lo, mx.lo+int32(len(mx.off))-1, 0)
		}
		if !mo.empty() {
			span(mo.lo, mo.lo+int32(len(mo.off))-1, -1)
			span(mo.lo, mo.lo+int32(len(mo.off))-1, 1)
		}
		if !ie.empty() {
			span(ie.lo, ie.lo+int32(len(ie.off))-1, 1)
		}
		if !de.empty() {
			span(de.lo, de.lo+int32(len(de.off))-1, -1)
		}
		if lo > hi {
			m, i, d = append(m, refWave{}), append(i, refWave{}), append(d, refWave{})
			continue
		}
		width := hi - lo + 1
		iOff := make([]int32, width)
		dOff := make([]int32, width)
		mOff := make([]int32, width)
		cells += 3 * int64(width)
		idCells += 2 * int64(width)
		for k := lo; k <= hi; k++ {
			// I: gap in s (consume t): offset +1 from diagonal k−1.
			ins := maxOff(mo.get(k-1), ie.get(k-1))
			if ins > none/2 {
				ins++
			}
			if ins > nt || ins-k > ns || ins-k < 0 {
				ins = none
			}
			// D: gap in t (consume s): offset unchanged from diagonal k+1.
			del := maxOff(mo.get(k+1), de.get(k+1))
			if del > nt || del-k > ns || del < 0 {
				del = none
			}
			// M: mismatch (consume both) from the same diagonal, or close a
			// gap from the I/D cells just computed.
			mis := mx.get(k)
			if mis > none/2 {
				mis++
			}
			if mis > nt || mis-k > ns || mis-k < 1 {
				mis = none
			}
			iOff[k-lo], dOff[k-lo] = ins, del
			mOff[k-lo] = maxOff(mis, maxOff(ins, del))
		}
		wi := refWave{lo: lo, off: iOff}
		wd := refWave{lo: lo, off: dOff}
		wm := refWave{lo: lo, off: mOff}
		liveQ := scan(&wm, q, true)
		if scan(&wi, q, false) {
			liveQ = true
		}
		if scan(&wd, q, false) {
			liveQ = true
		}
		m, i, d = append(m, wm), append(i, wi), append(d, wd)
		if liveQ {
			lastLive = q
		}
	}
	return best2 / 2, bv, bh, cells, idCells
}
