package align

// extendRef is the reference oracle for extend: the x-drop kernel this
// package shipped before the scratch-backed rewrite, verbatim — one fresh
// slice per antidiagonal, and per cell the bounds, nil and liveness tests the
// sentinel rows made unnecessary. The differential and fuzz tests hold extend
// to it bit for bit, work counter included.
func extendRef(s, t []byte, p Params) (score, si, ti int32) {
	ns, nt := int32(len(s)), int32(len(t))
	if ns == 0 || nt == 0 {
		return 0, 0, 0
	}
	// Antidiagonal DP: cell (i, j) lives on antidiagonal d = i + j; arrays
	// are indexed by i-lo for the active band [lo, hi] of each antidiagonal.
	// Only the band of live (un-pruned) cells is visited: the x-drop keeps
	// it O(XDrop) wide, so a perfect overlap costs O(len · band), not
	// O(len²).
	best, bi, bj := int32(0), int32(0), int32(0)
	var cells int64
	defer func() {
		if p.Cells != nil {
			*p.Cells += cells
		}
	}()
	prev1 := []int32{0} // antidiagonal 0: the single cell (0,0)
	lo1, hi1 := int32(0), int32(0)
	prev2 := []int32(nil)
	lo2, hi2 := int32(0), int32(-1)
	for d := int32(1); d <= ns+nt; d++ {
		// Geometric bounds of the antidiagonal...
		lo := d - nt
		if lo < 0 {
			lo = 0
		}
		hi := d
		if hi > ns {
			hi = ns
		}
		// ...intersected with cells reachable from the live bands of the
		// two previous antidiagonals (moves: i-1 from d-2 and d-1, i from
		// d-1).
		reachLo := lo1
		if lo2 < reachLo {
			reachLo = lo2
		}
		reachHi := hi1 + 1
		if hi2+1 > reachHi {
			reachHi = hi2 + 1
		}
		if reachLo > lo {
			lo = reachLo
		}
		if reachHi < hi {
			hi = reachHi
		}
		if lo > hi {
			break
		}
		cur := make([]int32, hi-lo+1)
		cells += int64(hi - lo + 1)
		alive := false
		liveLo, liveHi := hi+1, lo-1
		for i := lo; i <= hi; i++ {
			j := d - i
			v := negInf
			// Diagonal move (match/mismatch) from (i-1, j-1) on d-2.
			if i > 0 && j > 0 && prev2 != nil {
				pi := i - 1 - lo2
				if pi >= 0 && pi < int32(len(prev2)) && prev2[pi] > negInf/2 {
					sc := p.Mismatch
					if s[i-1] == t[j-1] {
						sc = p.Match
					}
					if w := prev2[pi] + sc; w > v {
						v = w
					}
				}
			}
			// Gap moves from d-1: (i-1, j) and (i, j-1).
			if i > 0 {
				pi := i - 1 - lo1
				if pi >= 0 && pi < int32(len(prev1)) && prev1[pi] > negInf/2 {
					if w := prev1[pi] + p.Gap; w > v {
						v = w
					}
				}
			}
			if j > 0 {
				pi := i - lo1
				if pi >= 0 && pi < int32(len(prev1)) && prev1[pi] > negInf/2 {
					if w := prev1[pi] + p.Gap; w > v {
						v = w
					}
				}
			}
			// X-drop prune.
			if v < best-p.XDrop {
				v = negInf
			} else if v > negInf/2 {
				alive = true
				if i < liveLo {
					liveLo = i
				}
				if i > liveHi {
					liveHi = i
				}
				if v > best || (v == best && i+j > bi+bj) || (v == best && i+j == bi+bj && i > bi) {
					best, bi, bj = v, i, j
				}
			}
			cur[i-lo] = v
		}
		if !alive {
			break
		}
		// Shrink the stored band to the live cells.
		prev2, lo2, hi2 = prev1, lo1, hi1
		prev1, lo1, hi1 = cur[liveLo-lo:liveHi-lo+1], liveLo, liveHi
	}
	return best, bi, bj
}
