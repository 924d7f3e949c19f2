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
}

// BestOf runs al.SeedExtend for every seed and keeps the highest-scoring
// alignment (ties: the first seed), BELLA's "up to two seeds" policy.
func BestOf(al Aligner, u, v []byte, k int32, seeds []Seed) Result {
	var best Result
	bestScore := negInf
	for _, s := range seeds {
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
