package align

import "repro/internal/bidir"

// Result is the outcome of a seed-and-extend alignment: score and half-open
// extents on both reads in forward coordinates. It is an alias of bidir.Aln
// so backends plug straight into the overlap matrix without conversion.
type Result = bidir.Aln

// Aligner is the pluggable backend contract for the Alignment stage: a seed
// goes in, a Result-compatible score and extents come out. Implementations
// exist for the x-drop DP (this package) and wavefront alignment (package
// wfa); the overlap stage dispatches through this interface, one instance
// per simulated rank (instances need not be safe for concurrent use).
type Aligner interface {
	// Name identifies the backend ("xdrop", "wfa").
	Name() string
	// SeedExtend aligns u and v around the shared k-mer seed.
	SeedExtend(u, v []byte, k int32, seed Seed) Result
	// Work returns the cumulative DP work units (cells or wavefront offsets
	// visited) since construction — the counter behind package perfmodel.
	Work() int64
	// ChainExact reports whether the backend's own parameters meet the
	// precondition of the chained-seed lemma (DESIGN.md §3): SeedExtend of a
	// shared k-mer and of the same k-mer shifted by 0 < δ ≤ k bases along
	// its diagonal return the same Result. BestOf extends one seed per chain
	// only when this holds, and every seed otherwise.
	ChainExact() bool
}

// chained reports whether s is prev shifted by 0 < δ ≤ k bases along prev's
// strand and diagonal: ΔPU = ΔPV = δ on forward seeds, ΔPU = −ΔPV = δ on
// reverse-complement ones (PV counts on v's forward strand, so it falls as
// the window advances on revcomp(v)). The two windows then abut or overlap:
// the k+δ bases from prev's first to s's last are one exact match.
func chained(prev, s Seed, k int32) bool {
	d := s.PU - prev.PU
	if s.RC != prev.RC || d <= 0 || d > k {
		return false
	}
	if s.RC {
		return prev.PV-s.PV == d
	}
	return s.PV-prev.PV == d
}

// Extensions returns how many of seeds BestOf(al, …, k, seeds) extends: all
// of them, less those chained to the seed extended before them when
// al.ChainExact().
func Extensions(al Aligner, k int32, seeds []Seed) int {
	exact := al.ChainExact()
	n, last := 0, -1 // last: the seed BestOf extends last
	for i, s := range seeds {
		if exact && last >= 0 && chained(seeds[last], s, k) {
			continue
		}
		n, last = n+1, i
	}
	return n
}

// BestOf keeps the highest-scoring alignment over the seeds (ties: the first
// seed), BELLA's "up to two seeds" policy. Every seed must be a shared k-mer
// of u and v (the Seed contract). A seed chained to the seed extended before
// it would return that seed's Result (the chained-seed lemma, DESIGN.md §3)
// and could not win the strict comparison, so when al.ChainExact() it is not
// extended; every other seed is.
func BestOf(al Aligner, u, v []byte, k int32, seeds []Seed) Result {
	var best Result
	bestScore := negInf
	exact := al.ChainExact()
	last := -1 // the seed extended last
	for i, s := range seeds {
		if exact && last >= 0 && chained(seeds[last], s, k) {
			continue
		}
		last = i
		a := al.SeedExtend(u, v, k, s)
		if a.Score > bestScore {
			best, bestScore = a, a.Score
		}
	}
	return best
}

// XDropAligner adapts the banded antidiagonal x-drop DP of this package to
// the Aligner interface. Instances keep a Scratch (and a pre-bound extension
// func, so the hot loop closes over nothing per call) and are not safe for
// concurrent use — the overlap stage builds one per pool worker.
type XDropAligner struct {
	p       Params
	cells   int64
	scratch Scratch
	ext     ExtendFunc
}

// NewXDrop builds the x-drop backend; any Cells pointer in p is replaced by
// the aligner's own work counter.
func NewXDrop(p Params) *XDropAligner {
	a := &XDropAligner{p: p}
	a.p.Cells = &a.cells
	a.ext = a.Extend
	return a
}

// Name implements Aligner.
func (a *XDropAligner) Name() string { return "xdrop" }

// Work implements Aligner.
func (a *XDropAligner) Work() int64 { return a.cells }

// ChainExact implements Aligner.
func (a *XDropAligner) ChainExact() bool { return a.p.chainExact() }

// SeedExtend implements Aligner.
func (a *XDropAligner) SeedExtend(u, v []byte, k int32, seed Seed) Result {
	return SeedExtendWithScratch(&a.scratch, u, v, k, seed, a.p.Match, a.ext)
}

// Extend is the backend's extension primitive (an ExtendFunc), exposed so
// cross-backend agreement tests and benchmarks can compare primitives
// directly.
func (a *XDropAligner) Extend(s, t []byte) (score, si, ti int32) {
	return extend(&a.scratch, s, t, a.p)
}
