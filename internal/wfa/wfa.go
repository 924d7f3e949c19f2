// Package wfa implements linear-gap wavefront alignment (the wavefront
// algorithm of Marco-Sola et al., Bioinformatics 2021, restricted to the
// dual of the x-drop's +1/−2/−2 scoring) as a pluggable backend for the
// Alignment stage: the same seed-anchored bidirectional extension contract as
// the x-drop DP (align.Aligner), but O(n·s) in the alignment penalty s instead
// of O(n·band). On low-divergence pairs (PacBio HiFi-style reads) the penalty
// — and with it the number of wavefront offsets computed — stays tiny, so WFA
// wins exactly where the x-drop still pays its per-antidiagonal band cost.
//
// The wavefront runs in a "doubled score" dual space: with penalties
// mismatch = 2·(match − mismatchScore) and gapExt = match − 2·gapScore
// (DualParams), minimizing WFA penalty q is equivalent to maximizing the
// classic linear-gap score, via 2·score = match·(v+h) − q for a cell that
// has consumed v bases of s and h of t. Extension results therefore convert
// back to x-drop-compatible scores and extents exactly. An adaptive
// wavefront-pruning heuristic plays the role of the x-drop cutoff: any
// diagonal whose dual score lags the running best by more than 2·Drop is
// removed from the wavefront, which bounds both the wavefront width and the
// number of waves.
//
// Gaps are linear (opening one costs nothing beyond its first extension), so
// a single wavefront component suffices. The gap-affine algorithm keeps
// insertion and deletion components I and D beside M; with a zero opening
// cost both are fed from the same level as M's gap-closing move, M[q][k] is
// by definition ≥ I[q][k] and D[q][k] before its match run and only grows
// after, and a diagonal is pruned on its offset alone — so wherever I or D
// holds a live offset M holds a live, further one on the same diagonal, every
// max over {M, I, D} is decided by M, and dropping I and D changes no wave,
// no prune and no stopping point (the differential tests hold the kernel to
// the three-component reference bit for bit).
package wfa

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/align"
)

// Params are the wavefront penalties (all ≥ 0, dual doubled-score units)
// plus the knobs shared with the x-drop backend.
type Params struct {
	Match    int32 // classic per-base match score (> 0); converts offsets back into scores
	Mismatch int32 // substitution penalty (≥ 1)
	GapExt   int32 // per-base gap penalty (≥ 1); gaps are linear, opening is free
	// Drop is the adaptive-pruning threshold in classic score units, the
	// x-drop analog: diagonals whose score falls more than Drop below the
	// running best leave the wavefront.
	Drop int32
}

// DualParams converts x-drop scoring parameters into the equivalent
// linear-gap wavefront penalties: alignments ranked identically, scores
// convertible exactly. With align.DefaultParams (+1/−2/−2) this yields
// mismatch 6, gapExt 5.
func DualParams(a align.Params) Params {
	return Params{
		Match:    a.Match,
		Mismatch: 2 * (a.Match - a.Mismatch),
		GapExt:   a.Match - 2*a.Gap,
		Drop:     a.XDrop,
	}
}

// DefaultParams mirrors align.DefaultParams(drop) in wavefront space.
func DefaultParams(drop int32) Params {
	return DualParams(align.DefaultParams(drop))
}

// none marks a diagonal without a live cell; live offsets are ≥ 0.
const none = int32(-1 << 30)

// wave holds the furthest-reaching offsets of one penalty level: off[k-lo]
// is h, the number of t bases consumed on diagonal k = h − v (none = no
// live cell), trimmed to the live diagonals. An empty wave has len(off) == 0.
// off is a view into buf, the slot's reusable backing store.
type wave struct {
	lo       int32
	off, buf []int32
}

// get returns the offset of diagonal k, or none.
func (w *wave) get(k int32) int32 {
	if idx := k - w.lo; uint32(idx) < uint32(len(w.off)) {
		return w.off[idx]
	}
	return none
}

// Aligner is the wavefront backend; it satisfies align.Aligner. Instances
// keep their wavefront storage across calls and are not safe for concurrent
// use — the overlap stage builds one per simulated rank.
type Aligner struct {
	p     Params
	cells int64
	// ring holds the last max(Mismatch, GapExt)+1 waves, wave q in slot
	// q mod len(ring): a wave reads only the levels q−Mismatch and q−GapExt,
	// so older ones are dead and their buffers are reused in place.
	ring []wave
	// scratch backs the wrapper's reverse-complement/reversed-prefix copies;
	// ext is the pre-bound extension func so SeedExtend closes over nothing.
	scratch align.Scratch
	ext     align.ExtendFunc
}

// New builds a wavefront backend with its own cumulative work counter (see
// Work).
func New(p Params) *Aligner {
	if p.Match <= 0 || p.Mismatch < 1 || p.GapExt < 1 {
		panic("wfa: need Match > 0, Mismatch ≥ 1, GapExt ≥ 1")
	}
	a := &Aligner{p: p, ring: make([]wave, max(p.Mismatch, p.GapExt)+1)}
	a.ext = a.Extend
	return a
}

// Name implements align.Aligner.
func (a *Aligner) Name() string { return "wfa" }

// Work implements align.Aligner: wavefront offsets computed plus bases
// compared by the match runs, the WFA equivalent of the x-drop's DP-cell
// counter.
func (a *Aligner) Work() int64 { return a.cells }

// ChainExact implements align.Aligner: the chained-seed lemma (DESIGN.md §3)
// holds for the wavefront whenever a gap costs more than a match earns
// (GapExt > Match, i.e. a negative classic gap score) and Drop ≥ 0. The match
// run of wave 0 swallows the bases between two chained seeds, and every later
// offset derives from that run's end, so the waves of the two extensions are
// translates of each other; the gap condition only keeps a read that ends
// inside the run from tying with the cell one gap past its end.
func (a *Aligner) ChainExact() bool { return a.p.GapExt > a.p.Match && a.p.Drop >= 0 }

// SeedExtend implements align.Aligner via the shared bidirectional wrapper,
// with the instance's scratch buffers.
func (a *Aligner) SeedExtend(u, v []byte, k int32, seed align.Seed) align.Result {
	return align.SeedExtendWithScratch(&a.scratch, u, v, k, seed, a.p.Match, a.ext)
}

// lcp returns the length of the longest common prefix of a and b, eight
// bases per step: XOR two little-endian words and the lowest set bit names
// the first differing byte.
func lcp(a, b []byte) int32 {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return int32(i + bits.TrailingZeros64(x)>>3)
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return int32(i)
}

// back returns the ring slot d levels before slot in a ring of n (d < n).
func back(slot, d, n int32) int32 {
	if slot -= d; slot < 0 {
		slot += n
	}
	return slot
}

// Extend is the extension primitive (align.ExtendFunc): the best local
// extension of s versus t from (0,0) forward, returning the classic score
// and half-open extents. Semantics match the x-drop extend; only the search
// order differs (per-penalty wavefronts instead of per-antidiagonal bands).
func (a *Aligner) Extend(s, t []byte) (score, si, ti int32) {
	ns, nt := int32(len(s)), int32(len(t))
	if ns == 0 || nt == 0 {
		return 0, 0, 0
	}
	match, x, e := a.p.Match, a.p.Mismatch, a.p.GapExt
	drop2 := 2 * a.p.Drop
	ring := a.ring
	lookback := int32(len(ring)) - 1
	for i := range ring {
		ring[i].off = nil
	}

	// Penalty 0: the single cell (0,0) and its match run. best2 is the
	// doubled classic score of the best cell seen; ties break like the
	// x-drop: furthest v+h, then furthest v.
	h0 := lcp(s, t)
	w0 := &ring[0]
	w0.buf = append(w0.buf[:0], h0)
	if drop2 >= 0 { // a negative Drop prunes even the best cell
		w0.lo, w0.off = 0, w0.buf
	}
	cells := 1 + int64(h0)
	best2, bv, bh := 2*match*h0, h0, h0
	lastLive := int32(0)

	// Safety cap: beyond it every cell's dual score is under best2 − drop2
	// (best2 ≥ 0), so the prune has necessarily emptied all wavefronts.
	qcap := match*(ns+nt) + drop2 + lookback + 1
	slot := int32(0) // q mod len(ring), kept incrementally
	for q := int32(1); q-lastLive <= lookback && q < qcap; q++ {
		if slot++; slot > lookback {
			slot = 0
		}
		// Sources: mismatch from level q−x on the same diagonal, gap from
		// level q−e on the two neighbouring diagonals. Levels below zero
		// land on slots this call has not written yet, which are empty.
		mx := &ring[back(slot, x, lookback+1)]
		mg := &ring[back(slot, e, lookback+1)]
		w := &ring[slot]
		w.off = nil
		lo, hi := int32(1)<<30, int32(-1)<<30
		if n := int32(len(mx.off)); n > 0 {
			lo, hi = mx.lo, mx.lo+n-1
		}
		if n := int32(len(mg.off)); n > 0 {
			lo, hi = min(lo, mg.lo-1), max(hi, mg.lo+n)
		}
		if lo > hi {
			continue
		}
		width := int(hi - lo + 1)
		w.buf = slices.Grow(w.buf[:0], width)
		off := w.buf[:width]
		cells += int64(width)
		liveLo, liveHi := int32(0), int32(-1)
		for k := lo; k <= hi; k++ {
			// Mismatch: consume a base of each on diagonal k.
			h := mx.get(k) + 1
			if h > nt || h-k > ns {
				h = none
			}
			// Gap in s: consume a base of t, arriving from diagonal k−1.
			if g := mg.get(k-1) + 1; g > h && g <= nt && g-k <= ns {
				h = g
			}
			// Gap in t: consume a base of s, arriving from diagonal k+1.
			if g := mg.get(k + 1); g > h && g <= nt && g-k <= ns {
				h = g
			}
			if h < 0 {
				off[k-lo] = none
				continue
			}
			// Furthest-reaching match run.
			v := h - k
			n := lcp(s[v:], t[h:])
			cells += int64(n)
			h, v = h+n, v+n
			s2 := match*(h+v) - q
			if s2 > best2 || s2 == best2 && (v+h > bv+bh || v+h == bv+bh && v > bv) {
				best2, bv, bh = s2, v, h
			}
			// Adaptive prune: the x-drop rule in dual space.
			if s2 < best2-drop2 {
				off[k-lo] = none
				continue
			}
			off[k-lo] = h
			if liveHi < 0 {
				liveLo = k - lo
			}
			liveHi = k - lo
		}
		if liveHi >= 0 {
			w.lo, w.off = lo+liveLo, off[liveLo:liveHi+1]
			lastLive = q
		}
	}
	a.cells += cells
	return best2 / 2, bv, bh
}
