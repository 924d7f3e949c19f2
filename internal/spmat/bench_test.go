package spmat

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
)

func benchTriples(n int32, nnzPerRow int) []Triple[int64] {
	rng := rand.New(rand.NewSource(3))
	var ts []Triple[int64]
	for r := int32(0); r < n; r++ {
		for k := 0; k < nnzPerRow; k++ {
			ts = append(ts, Triple[int64]{Row: r, Col: int32(rng.Intn(int(n))), Val: 1})
		}
	}
	return NewCOO(n, n, ts, func(a, b int64) int64 { return a + b }).Ts
}

func BenchmarkLocalMultiply(b *testing.B) {
	n := int32(2000)
	ts := benchTriples(n, 8)
	a := NewCOO(n, n, append([]Triple[int64](nil), ts...), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Multiply(a, a, plusTimes)
	}
}

// BenchmarkNewCOO drives the three sortColumnMajor paths: column-clustered
// input (row-run sorts only), shuffled input on a bucketable column count
// (radix scatter), and shuffled hypersparse input (global sort fallback).
func BenchmarkNewCOO(b *testing.B) {
	n := int32(4000)
	clustered := benchTriples(n, 8) // canonical: already column-clustered
	shuffled := append([]Triple[int64](nil), clustered...)
	rng := rand.New(rand.NewSource(9))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	run := func(name string, nc int32, src []Triple[int64]) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			cp := make([]Triple[int64], len(src))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(cp, src)
				NewCOO(n, nc, cp, func(a, b int64) int64 { return a + b })
			}
		})
	}
	run("clustered", n, clustered)
	run("shuffled_bucket", n, shuffled)
	// Hypersparse: same triples, column space far wider than nnz.
	wide := append([]Triple[int64](nil), shuffled...)
	for i := range wide {
		wide[i].Col *= 50000
	}
	run("shuffled_sortfallback", n*50000, wide)
}

func BenchmarkSpGEMMDistributed(b *testing.B) {
	n := int32(2000)
	ts := benchTriples(n, 8)
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			err := mpi.Run(p, func(c *mpi.Comm) {
				g := grid.New(c)
				a := FromGlobalTriples(g, n, n, ts, nil)
				mpitest.InMode(c, false, func() {
					for i := 0; i < b.N; i++ {
						SpGEMMCounted(a, a, plusTimes, Mask{}, nil)
					}
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkDistributedTranspose(b *testing.B) {
	n := int32(4000)
	ts := benchTriples(n, 8)
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			err := mpi.Run(p, func(c *mpi.Comm) {
				g := grid.New(c)
				a := FromGlobalTriples(g, n, n, ts, nil)
				for i := 0; i < b.N; i++ {
					Transpose(a, nil)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
