package align

import (
	"fmt"
	"testing"

	"repro/internal/readsim"
)

func BenchmarkExtendPerfectOverlap(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			g := readsim.Genome(readsim.GenomeConfig{Length: n, Seed: 1})
			p := DefaultParams(15)
			sc := new(Scratch)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				extend(sc, g, g, p)
			}
		})
	}
}

func BenchmarkExtendWithErrors(b *testing.B) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 8000, Seed: 2})
	reads := readsim.Simulate(g, readsim.ReadConfig{Depth: 0.999, MeanLen: 7500, ErrorRate: 0.05, Seed: 3, ForwardOnly: true})
	if len(reads) == 0 {
		b.Skip("no reads")
	}
	r := reads[0]
	p := DefaultParams(40)
	sc := new(Scratch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extend(sc, g[r.Pos:], r.Seq, p)
	}
}

// BenchmarkBestOfDispatch measures the Aligner-interface dispatch against
// the direct call: the overlap stage pays this per candidate pair, so the
// indirection must stay in the noise.
func BenchmarkBestOfDispatch(b *testing.B) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 4000, Seed: 9})
	u, v := g[:2500], g[1500:]
	k := int32(17)
	seeds := []Seed{{PU: 2000, PV: 500}}
	p := DefaultParams(15)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Best(u, v, k, seeds, p)
		}
	})
	b.Run("interface", func(b *testing.B) {
		al := NewXDrop(p)
		for i := 0; i < b.N; i++ {
			BestOf(al, u, v, k, seeds)
		}
	})
}

// BenchmarkSeedExtendRC is the steady-state cost of one seed-anchored
// bidirectional extension with an RC seed through the backend instance the
// overlap stage holds (the wfa package has the same benchmark as
// BenchmarkSeedExtendRC/wfa); CI pins its allocs_per_op at 0.
func BenchmarkSeedExtendRC(b *testing.B) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 6000, Seed: 4})
	u := g[:4000]
	v := g[2000:]
	// rc seed in the middle of the overlap
	k := int32(17)
	seed := Seed{PU: 3000, PV: int32(len(v)) - (3000 - 2000) - k, RC: true}
	vr := make([]byte, len(v))
	for i := range v {
		vr[len(v)-1-i] = map[byte]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A'}[v[i]]
	}
	b.Run("xdrop", func(b *testing.B) {
		xd := NewXDrop(DefaultParams(15))
		xd.SeedExtend(u, vr, k, seed)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			xd.SeedExtend(u, vr, k, seed)
		}
	})
}
