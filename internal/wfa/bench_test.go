package wfa

import (
	"fmt"
	"testing"

	"repro/internal/align"
	"repro/internal/readsim"
)

// BenchmarkExtendBackends is the extension-primitive head-to-head across the
// error-rate regimes of the readsim presets (0.5% C. elegans/O. sativa, 15%
// H. sapiens): the WFA claim is O(n·s) beating O(n·band) at low divergence.
func BenchmarkExtendBackends(b *testing.B) {
	for _, er := range []float64{0.005, 0.05, 0.15} {
		g := readsim.Genome(readsim.GenomeConfig{Length: 9000, Seed: 2})
		reads := readsim.Simulate(g, readsim.ReadConfig{
			Depth: 0.999, MeanLen: 8000, ErrorRate: er, Seed: 3, ForwardOnly: true,
		})
		if len(reads) == 0 {
			b.Fatal("no reads")
		}
		r := reads[0]
		s, t := g[r.Pos:], r.Seq
		drop := int32(15)
		if er > 0.01 {
			drop = 40
		}
		b.Run(fmt.Sprintf("err=%g/xdrop", er), func(b *testing.B) {
			xd := align.NewXDrop(align.DefaultParams(drop))
			xd.Extend(s, t)
			work := xd.Work()
			b.SetBytes(int64(len(t)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xd.Extend(s, t)
			}
			b.ReportMetric(float64(xd.Work()-work)/float64(b.N), "cells/op")
		})
		b.Run(fmt.Sprintf("err=%g/wfa", er), func(b *testing.B) {
			wf := New(DefaultParams(drop))
			wf.Extend(s, t)
			work := wf.Work()
			b.SetBytes(int64(len(t)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wf.Extend(s, t)
			}
			b.ReportMetric(float64(wf.Work()-work)/float64(b.N), "cells/op")
		})
	}
}

// BenchmarkSeedExtendRC mirrors the align package benchmark for the
// wavefront backend: seed-anchored bidirectional extension with an RC seed.
func BenchmarkSeedExtendRC(b *testing.B) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 6000, Seed: 4})
	u := g[:4000]
	v := g[2000:]
	k := int32(17)
	seed := align.Seed{PU: 3000, PV: int32(len(v)) - (3000 - 2000) - k, RC: true}
	vr := make([]byte, len(v))
	for i := range v {
		vr[len(v)-1-i] = map[byte]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A'}[v[i]]
	}
	b.Run("wfa", func(b *testing.B) {
		wf := New(DefaultParams(15))
		wf.SeedExtend(u, vr, k, seed)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wf.SeedExtend(u, vr, k, seed)
		}
	})
}
