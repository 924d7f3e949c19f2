// Package align implements the x-drop seed-and-extend pairwise aligner used
// for the Alignment stage of Algorithm 1 (the SeqAn/LOGAN substitute): from
// a shared k-mer seed, a banded antidiagonal dynamic program extends the
// alignment left and right, pruning cells whose score falls more than x
// below the running best (Zhang et al.'s x-drop rule). The x-drop can stop
// an extension early, which is exactly why the string graph stores post(e)
// (§4.4).
package align

import (
	"math"
	"slices"

	"repro/internal/bidir"
	"repro/internal/dna"
)

// Params are the scoring parameters; the paper runs ELBA with x = 15 for the
// low-error datasets and x = 7 for H. sapiens.
type Params struct {
	Match    int32 // score per matching base (> 0)
	Mismatch int32 // score per mismatching base (< 0)
	Gap      int32 // score per inserted/deleted base (< 0)
	XDrop    int32 // give up when score < best - XDrop
	// Cells, when non-nil, accumulates the number of DP cells visited — the
	// work counter behind the performance model (package perfmodel).
	Cells *int64
}

// DefaultParams uses +1 match, -2 mismatch, -2 gap. (BELLA scores +1/-1/-1,
// but with linear gaps that scheme has a positive expected score drift on
// random DNA — the Chvátal–Sankoff constant for 4 letters is ≈0.65 — so an
// x-drop would never fire; -2 penalties restore the negative drift that
// makes the x-drop terminate while still crossing isolated errors.)
func DefaultParams(xdrop int32) Params {
	return Params{Match: 1, Mismatch: -2, Gap: -2, XDrop: xdrop}
}

// chainExact is the precondition of the chained-seed lemma for the x-drop DP
// (DESIGN.md §3). Match > 0 > Gap and Mismatch ≤ Match make an initial match
// never worse than any other first move; XDrop ≥ −Gap keeps the two cells of
// antidiagonal 1 alive, without which the DP stops before it reaches the
// match at (1,1) and every extension is empty wherever it starts.
func (p Params) chainExact() bool {
	return p.Match > 0 && p.Gap < 0 && p.Mismatch <= p.Match && p.XDrop >= -p.Gap
}

// negInf marks a dead cell. The kernel adds one move score to it without
// checking first, so scores and XDrop must stay far below 2^29 in magnitude —
// any scoring that makes sense for reads does.
const negInf = int32(-1 << 30)

// Scratch holds the reusable buffers of one aligner instance (instances are
// single-goroutine by contract), so neither the seed-extension wrapper nor
// the x-drop DP allocates on the Alignment hot path.
//
// rc, ru and rv back the wrapper's copies: the reverse complement of v for RC
// seeds and the two reversed prefixes of the left extension. (The audited
// alternative — dna.RevCompInPlace on v itself — is off the table because u
// and v alias the rank's shared row/column sequence stores.)
//
// rows are the three antidiagonals the x-drop DP keeps (current, d−1, d−2).
// Cell i of an antidiagonal lives at index i+1, so i−1 at the first cell and
// i+1 at the last read padding, not out of range. Invariant between calls:
// every entry of every row is negInf. extend relies on it — whatever lies
// outside an antidiagonal's live band reads as dead without a bounds, nil or
// liveness test per cell — and restores it before returning by wiping the
// bands it still holds; growRows establishes it for fresh rows.
type Scratch struct {
	rc, ru, rv []byte
	rows       [3][]int32
}

// growRows makes every row hold cells −1..n+1.
func (sc *Scratch) growRows(n int32) {
	if int(n)+3 <= len(sc.rows[0]) {
		return
	}
	for r := range sc.rows {
		row := slices.Grow(sc.rows[r][:0], int(n)+3)
		row = row[:cap(row)]
		for i := range row {
			row[i] = negInf
		}
		sc.rows[r] = row
	}
}

// band is the live part [lo, hi] of one stored antidiagonal (cell indices,
// empty when lo > hi) and the row that holds it.
type band struct {
	row    []int32
	lo, hi int32
}

// wipe restores the row's all-negInf invariant over cells [lo, hi].
func wipe(row []int32, lo, hi int32) {
	for i := lo; i <= hi; i++ {
		row[i+1] = negInf
	}
}

// extend runs a gapped x-drop extension of s against t starting at (0,0) and
// moving forward. Cell (i, j) scores the best alignment of s[0:i) with
// t[0:j); it returns the best score and its half-open extents (si, ti).
func extend(sc *Scratch, s, t []byte, p Params) (score, si, ti int32) {
	ns, nt := int32(len(s)), int32(len(t))
	if ns == 0 || nt == 0 {
		return 0, 0, 0
	}
	// Antidiagonal DP: cell (i, j) lives on antidiagonal d = i + j. Only the
	// band of live (un-pruned) cells is visited: the x-drop keeps it O(XDrop)
	// wide, so a perfect overlap costs O(len · band), not O(len²).
	sc.growRows(ns)
	match, mismatch, gap, xdrop := p.Match, p.Mismatch, p.Gap, p.XDrop
	best, bi, bj := int32(0), int32(0), int32(0)
	var cells int64
	// prev1 and prev2 are antidiagonals d−1 and d−2; cur is the row being
	// written, still holding the live band of d−3 until it is overwritten.
	cur := band{sc.rows[0], 0, -1}
	prev1 := band{sc.rows[1], 0, 0}
	prev2 := band{sc.rows[2], 0, -1}
	prev1.row[1] = 0 // antidiagonal 0: the single cell (0,0)
	for d := int32(1); d <= ns+nt; d++ {
		// Geometric bounds of the antidiagonal intersected with the cells
		// reachable from the live bands of the two previous antidiagonals
		// (moves: i-1 from d-2 and d-1, i from d-1).
		lo := max(d-nt, 0, min(prev1.lo, prev2.lo))
		hi := min(d, ns, max(prev1.hi, prev2.hi)+1)
		if lo > hi {
			break
		}
		cells += int64(hi - lo + 1)
		// What the stale band holds outside [lo, hi] would read as live two
		// antidiagonals from now.
		wipe(cur.row, cur.lo, min(cur.hi, lo-1))
		wipe(cur.row, max(cur.lo, hi+1), cur.hi)
		liveLo, liveHi := hi+1, lo-1
		// settle turns the best score v reaching cell i into what the row
		// stores: x-drop prune, live extent, best cell. Antidiagonals only
		// advance and i only grows within one, so the tie-break of equal
		// scores (furthest i+j, then furthest i) is "the later cell wins".
		// Called directly and never reassigned, so the compiler inlines it
		// and its captured variables stay in registers.
		settle := func(v, i int32) int32 {
			if v < best-xdrop {
				return negInf
			}
			liveLo, liveHi = min(liveLo, i), i
			if v >= best {
				best, bi, bj = v, i, d-i
			}
			return v
		}
		// The cells i = 0 and j = 0 have one gap move each and no base to
		// compare, so they stay out of the loop.
		if lo == 0 {
			cur.row[1] = settle(prev1.row[1]+gap, 0)
		}
		first, last := max(lo, 1), min(hi, d-1)
		if first <= last {
			n := int(last - first + 1)
			c := cur.row[first+1:][:n]
			p2 := prev2.row[first:][:n]   // (i-1, j-1) on d-2
			p1 := prev1.row[first+1:][:n] // (i, j-1) on d-1
			up := prev1.row[first]        // (i-1, j) on d-1: the previous cell's (i, j-1)
			sb := s[first-1:][:n]         // s[i-1]
			tb := t[d-last-1:][:n]        // t[j-1], walked backwards
			for x := range c {
				sub := mismatch
				if sb[x] == tb[len(tb)-1-x] {
					sub = match
				}
				left := p1[x]
				c[x] = settle(max(p2[x]+sub, max(up, left)+gap), first+int32(x))
				up = left
			}
		}
		if hi == d {
			cur.row[d+1] = settle(prev1.row[d]+gap, d)
		}
		// Store only the live cells' extent; pruned ones are negInf already.
		cur.lo, cur.hi = liveLo, liveHi
		if liveLo > liveHi {
			break
		}
		cur, prev1, prev2 = prev2, cur, prev1
	}
	wipe(cur.row, cur.lo, cur.hi)
	wipe(prev1.row, prev1.lo, prev1.hi)
	wipe(prev2.row, prev2.lo, prev2.hi)
	if p.Cells != nil {
		*p.Cells += cells
	}
	return best, bi, bj
}

// reverseInto writes the reverse of src into buf (grown geometrically when
// too small) and returns the filled slice.
func reverseInto(buf, src []byte) []byte {
	buf = slices.Grow(buf[:0], len(src))[:len(src)]
	for i, b := range src {
		buf[len(src)-1-i] = b
	}
	return buf
}

// Seed is a shared k-mer occurrence: the window starts at PU on u (forward
// coords) and PV on v (forward coords); RC says the canonical k-mer appears
// with opposite orientations, i.e. v overlaps u's reverse complement.
type Seed struct {
	PU, PV int32
	RC     bool
}

// Diag is s's diagonal d = PU − PV′ on u's axis, where PV′ is the window's
// start on the strand of v (of length lv) that matches u: PV forward,
// lv−PV−k on reverse-complement seeds. A gapless alignment through s puts v
// at [d, d+lv) on u.
func (s Seed) Diag(lv, k int32) int32 {
	if s.RC {
		return s.PU - (lv - s.PV - k)
	}
	return s.PU - s.PV
}

// MayContain reports whether an alignment of reads of lengths lu and lv
// anchored at one of seeds can pass the quality gate
// Score ≥ frac·min(EU−BU, EV−BV) and classify (bidir.Classify) as kind:
// bidir.ContainedU (u inside v) or bidir.ContainsV (v inside u). false is a
// proof that no backend scoring in p's units returns such an alignment; any
// other kind, or a scoring the proof does not cover, answers true.
//
// The alignment passes through its seed's diagonal d (Seed.Diag), starts on
// diagonal BU − BV′ and ends on EU − EV′ (BV′, EV′ on v's strand that matches
// u), and each gap moves it one diagonal. ContainedU needs BU ≤ BV′ and LU−EU ≤ LV−EV′, so it
// starts on a diagonal ≤ 0, ends on one ≥ LU−LV and has at least
// max(0, d) + max(0, LU−LV−d) gaps; ContainsV mirrors it with
// max(0, −d) + max(0, d−(LU−LV)). Either count is ≥ |LU−LV|. With M matches,
// X mismatches and G gaps, M+X ≤ alnLen ≤ min(LU, LV), so under Match > 0 ≥
// Mismatch and Gap < 0 the score Match·M + Mismatch·X + Gap·G is at most
// Match·alnLen − |Gap|·G, and the gate leaves G ≤ (Match − frac)·min(LU,
// LV)/|Gap| when Match > frac. That needs a backend's Score to be this linear
// score of the path it reports: the x-drop DP's is, and the wavefront
// converts its dual score back exactly (package wfa).
func (p Params) MayContain(kind bidir.Kind, lu, lv, k int32, seeds []Seed, frac float64) bool {
	if kind != bidir.ContainedU && kind != bidir.ContainsV ||
		!(p.Match > 0 && p.Mismatch <= 0 && p.Gap < 0 && float64(p.Match) > frac) {
		return true
	}
	// The gate rounds frac·alnLen once and maxGaps takes three roundings:
	// together under 2^-50 of (Match+|frac|)·m/|Gap|, which the slack covers.
	m, gap := float64(min(lu, lv)), float64(-p.Gap)
	maxGaps := (float64(p.Match)-frac)*m/gap + (float64(p.Match)+math.Abs(frac))*m/gap*0x1p-40
	dl := int64(lu) - int64(lv)
	for _, s := range seeds {
		d := int64(s.Diag(lv, k))
		gaps := max(0, -d) + max(0, d-dl)
		if kind == bidir.ContainedU {
			gaps = max(0, d) + max(0, dl-d)
		}
		if float64(gaps) <= maxGaps {
			return true
		}
	}
	return false
}

// ExtendFunc is the extension primitive an alignment backend supplies: the
// best-scoring local extension of s versus t starting at (0,0) and moving
// forward, returning the classic (match/mismatch/gap) score and the half-open
// extents reached on each sequence. Both the x-drop DP and the wavefront
// aligner (package wfa) implement this contract.
type ExtendFunc func(s, t []byte) (score, si, ti int32)

// SeedExtend aligns u and v around the seed with the x-drop DP and returns the
// alignment in forward coordinates of both reads (a bidir.Aln with U/V ids
// left zero for the caller to fill). It builds a throwaway Scratch per call;
// hot loops hold an XDropAligner instead.
func SeedExtend(u, v []byte, k int32, seed Seed, p Params) bidir.Aln {
	sc := new(Scratch)
	return SeedExtendWithScratch(sc, u, v, k, seed, p.Match,
		func(s, t []byte) (int32, int32, int32) { return extend(sc, s, t, p) })
}

// SeedExtendWithScratch runs the seed-anchored bidirectional extension with
// an arbitrary extension primitive: right extension from the seed end, left
// extension on the reversed prefixes, reverse-complement handling for RC
// seeds. Backends share this wrapper so their coordinate semantics (and the
// agreement tests built on them) are identical by construction. The
// reverse-complement and reversed-prefix copies land in the caller-owned sc
// and are reused across calls.
func SeedExtendWithScratch(sc *Scratch, u, v []byte, k int32, seed Seed, matchScore int32, ext ExtendFunc) bidir.Aln {
	work := v
	pv := seed.PV
	if seed.RC {
		// Align u against revcomp(v); the seed window [PV, PV+k) on v maps
		// to [LV-PV-k, LV-PV) on revcomp(v).
		sc.rc = dna.RevCompInto(sc.rc, v)
		work = sc.rc
		pv = int32(len(v)) - seed.PV - k
	}
	// Right extension from the seed end.
	rs, rExtU, rExtV := ext(u[seed.PU+k:], work[pv+k:])
	// Left extension: reverse the prefixes.
	sc.ru = reverseInto(sc.ru, u[:seed.PU])
	sc.rv = reverseInto(sc.rv, work[:pv])
	ls, lExtU, lExtV := ext(sc.ru, sc.rv)
	score := rs + ls + k*matchScore
	bu, eu := seed.PU-lExtU, seed.PU+k+rExtU
	bw, ew := pv-lExtV, pv+k+rExtV
	a := bidir.Aln{
		BU: bu, EU: eu,
		RC:    seed.RC,
		Score: score,
		LU:    int32(len(u)), LV: int32(len(v)),
	}
	if seed.RC {
		// Map [bw, ew) on revcomp(v) back to forward coordinates.
		a.BV, a.EV = int32(len(v))-ew, int32(len(v))-bw
	} else {
		a.BV, a.EV = bw, ew
	}
	return a
}

// Best is BestOf over a fresh x-drop aligner for p, for a one-off call that
// holds no aligner of its own. The aligner counts its own cells (NewXDrop),
// so a Cells pointer in p is not advanced.
func Best(u, v []byte, k int32, seeds []Seed, p Params) bidir.Aln {
	return BestOf(NewXDrop(p), u, v, k, seeds)
}
