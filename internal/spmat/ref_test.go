package spmat

import "fmt"

// multiplyMap is the map-accumulator kernel Multiply replaced, kept as the
// oracle of the randomized differential tests: the run-folding kernels (local
// and distributed, masked and not) must agree with it entry for entry. It
// hands the semiring one product at a time, each a one-triple run folded into
// a one-slot accumulator that carries the cell's value in and out of the map,
// so it shares no run bookkeeping with the kernels it checks.
func multiplyMap[A, B, C any](a CSC[A], b CSC[B], sr Semiring[A, B, C]) COO[C] {
	if a.NC != b.NR {
		panic(fmt.Sprintf("spmat: inner dims %d != %d", a.NC, b.NR))
	}
	var ts []Triple[C]
	acc := make(map[int32]C)
	slot := newAcc[C](1)
	for j := int32(0); j < b.NC; j++ {
		clear(acc)
		for p := b.JC[j]; p < b.JC[j+1]; p++ {
			k := b.IR[p]
			bv := b.V[p]
			for q := a.JC[k]; q < a.JC[k+1]; q++ {
				slot.reset()
				if cv, live := acc[a.IR[q]]; live {
					slot.vals[0] = cv
					slot.Claim(0)
				}
				sr.Fold(slot, []int32{0}, a.V[q:q+1], 0, bv)
				if len(slot.rows) > 0 {
					acc[a.IR[q]] = slot.vals[0]
				}
			}
		}
		for i, v := range acc {
			ts = append(ts, Triple[C]{Row: i, Col: j, Val: v})
		}
	}
	return NewCOO(a.NR, b.NC, ts, nil)
}
