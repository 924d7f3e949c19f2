package spmat

import "fmt"

// multiplyMap is the map-accumulator kernel Multiply replaced, kept as the
// oracle of the randomized differential tests: the SPA kernels (local and
// distributed, masked and not) must agree with it entry for entry.
func multiplyMap[A, B, C any](a CSC[A], b CSC[B], sr Semiring[A, B, C]) COO[C] {
	if a.NC != b.NR {
		panic(fmt.Sprintf("spmat: inner dims %d != %d", a.NC, b.NR))
	}
	var ts []Triple[C]
	acc := make(map[int32]C)
	var cv C // the one slot products are folded in: its address escapes, once
	var live bool
	for j := int32(0); j < b.NC; j++ {
		clear(acc)
		for p := b.JC[j]; p < b.JC[j+1]; p++ {
			k := b.IR[p]
			bv := b.V[p]
			for q := a.JC[k]; q < a.JC[k+1]; q++ {
				if cv, live = acc[a.IR[q]]; live {
					sr.MulAdd(&cv, a.V[q], bv)
					acc[a.IR[q]] = cv
				} else if sr.Mul(&cv, a.V[q], bv) {
					acc[a.IR[q]] = cv
				}
			}
		}
		for i, v := range acc {
			ts = append(ts, Triple[C]{Row: i, Col: j, Val: v})
		}
	}
	return NewCOO(a.NR, b.NC, ts, nil)
}
