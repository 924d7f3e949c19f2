// Package overlap implements the overlap-detection and alignment stages of
// Algorithm 1 (lines 3–9): building the |reads| × |k-mers| matrix A,
// computing the candidate matrix C = A·Aᵀ with a seed-collecting semiring
// via distributed SUMMA SpGEMM, running x-drop alignment on every candidate
// pair, and pruning low-quality alignments and contained reads to obtain the
// overlap matrix R.
package overlap

import (
	"sort"

	"repro/internal/align"
	"repro/internal/bidir"
	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/spmat"
	"repro/internal/trace"
)

// Seeds is the nonzero payload of the candidate matrix C: up to two shared
// k-mer seeds per read pair (BELLA's policy). The two lexicographically
// smallest distinct seeds are kept, which makes the semiring addition
// associative and commutative — required for SUMMA's stage-order-independent
// accumulation.
type Seeds struct {
	N int32
	S [2]align.Seed
}

// seedAcc is what the SpGEMM accumulates per candidate cell: the two smallest
// distinct shared seeds as packed keys, acc[0] < acc[1], unused slots holding
// noSeed. Seeds — the exported layout the aligner, the checkpoint format and
// the artifact cache read — is rebuilt from it once per surviving candidate.
type seedAcc [2]uint64

// noSeed marks an unused accumulator slot. It is above every real key (bit 32
// of a key is always clear), so an empty slot loses every comparison without a
// count field.
const noSeed = ^uint64(0)

// seedKey is the packed key of the seed two occurrences of one k-mer share —
// PU = a's position, PV = b's, RC when the strands differ — laid out so that
// integer order is the seed order (PU, then PV, then forward before
// reverse-complement): PU in bits 63..33, PV in bits 31..1, RC in bit 0. An
// Occur is already position<<1|strand, so each position drops into its lane
// with a mask and the strands combine with one XOR.
func seedKey(a, b kmer.Occur) uint64 {
	return uint64(a&^1)<<32 | uint64(b&^1) | uint64((a^b)&1)
}

func unpackSeed(k uint64) align.Seed {
	return align.Seed{PU: int32(k >> 33), PV: int32(k >> 1 & (1<<31 - 1)), RC: k&1 == 1}
}

// add inserts key k, keeping the two smallest distinct keys. Adding noSeed or
// a key already held is a no-op.
func (c *seedAcc) add(k uint64) {
	if k < c[0] {
		c[0], c[1] = k, c[0]
	} else if k != c[0] && k < c[1] {
		c[1] = k
	}
}

// seeds rebuilds the exported layout.
func (c seedAcc) seeds() Seeds {
	var s Seeds
	for _, k := range c {
		if k != noSeed {
			s.S[s.N] = unpackSeed(k)
			s.N++
		}
	}
	return s
}

// seedSemiring builds C = A·Aᵀ: multiplying occurrence A(i,k) with
// Aᵀ(k,j) yields a shared-seed candidate for pair (i,j), folded in place into
// the cell's two-key accumulator. Keeping the two smallest distinct keys is
// associative, commutative and idempotent, as SUMMA's stage-order-independent
// accumulation requires.
var seedSemiring = spmat.Semiring[kmer.Occur, kmer.Occur, seedAcc]{
	Mul: func(c *seedAcc, a, b kmer.Occur) bool {
		c[0], c[1] = seedKey(a, b), noSeed
		return true
	},
	MulAdd: func(c *seedAcc, a, b kmer.Occur) {
		c.add(seedKey(a, b))
	},
	Add: func(a, b seedAcc) seedAcc {
		a.add(b[0])
		a.add(b[1])
		return a
	},
}

// Config parameterizes overlap detection.
type Config struct {
	K            int   // k-mer length (paper: 31 low-error, 17 H. sapiens)
	ReliableLow  int32 // minimum read-count for a reliable k-mer
	ReliableHigh int32 // maximum read-count (repeat guard)
	Align        align.Params
	// NewAligner, when non-nil, constructs the per-rank alignment backend
	// the stage dispatches through; nil falls back to the x-drop aligner
	// built from Align. Each rank gets its own instance, so backends need
	// not be safe for concurrent use.
	NewAligner   func() align.Aligner
	MinOverlap   int32   // minimum aligned length on both reads
	MinScoreFrac float64 // score must be ≥ frac × aligned length
	MaxOverhang  int32   // dovetail tolerance (x-drop early stop slack)
	// Threads is the intra-rank worker count for the compute-heavy loops
	// (k-mer extraction, pairwise alignment); ≤ 1 runs them serially. Each
	// worker gets its own aligner instance, so NewAligner is called Threads
	// times per rank.
	Threads int
	// Async runs the communication-heavy loops with the nonblocking layer:
	// the k-mer exchange posts its receives before packing sends, and the
	// SUMMA SpGEMM prefetches round r+1's panels while multiplying round r.
	// Results and traffic counters are identical in both modes.
	Async bool
}

// aligner instantiates this rank's alignment backend.
func (c Config) aligner() align.Aligner {
	if c.NewAligner != nil {
		return c.NewAligner()
	}
	return align.NewXDrop(c.Align)
}

// Result carries the stage outputs and counters.
type Result struct {
	NumReads  int
	NumKmers  int
	R         *spmat.Dist[bidir.Aln] // symmetric overlap matrix
	Contained []int32                // reads removed as contained (global, replicated)
	// Counters (global, replicated); each candidate pair is counted once
	// (the checkerboard keeps one direction per pair).
	CandidatePairs int64 // aligned read pairs
	KeptOverlaps   int64 // pairs surviving as dovetails
}

// CountKmers is the CountKmer stage: distributed counting and reliable-k-mer
// selection. It records the column count and work units into res and returns
// the per-rank counting result consumed by DetectCandidates.
func CountKmers(g *grid.Grid, store *fasta.DistStore, cfg Config, tm *trace.Timers, res *Result) *kmer.Result {
	var kres *kmer.Result
	tm.Stage("CountKmer", g.Comm, func() {
		kres = kmer.CountAndBuild(store, cfg.K, cfg.ReliableLow, cfg.ReliableHigh, cfg.Threads, cfg.Async)
	})
	res.NumKmers = kres.NumCols
	tm.AddWork("CountKmer", kres.Occurrences)
	return kres
}

// DetectCandidates is the DetectOverlap stage: A and Aᵀ from one routing of
// the counting stage's row-major triples (spmat.FromRowMajor), then
// C = A·Aᵀ under the checkerboard mask, so the diagonal and the mirrored
// direction of every pair are never multiplied or accumulated (C is symmetric
// and each pair must be aligned exactly once). The mirror entry is
// reconstructed after alignment. The returned candidate matrix is not mutated
// by AlignCandidates, so one candidate set can feed several alignment runs.
func DetectCandidates(g *grid.Grid, store *fasta.DistStore, kres *kmer.Result, cfg Config, tm *trace.Timers, res *Result) *spmat.Dist[Seeds] {
	var c *spmat.Dist[Seeds]
	var products int64
	tm.Stage("DetectOverlap", g.Comm, func() {
		a, at := buildA(g, store.N, kres)
		var acc *spmat.Dist[seedAcc]
		if cfg.Async {
			acc = spmat.SpGEMMAsync(a, at, seedSemiring, spmat.Checkerboard(), &products)
		} else {
			acc = spmat.SpGEMMCounted(a, at, seedSemiring, spmat.Checkerboard(), &products)
		}
		cs := make([]spmat.Triple[Seeds], len(acc.Local.Ts))
		for i, t := range acc.Local.Ts {
			cs[i] = spmat.Triple[Seeds]{Row: t.Row, Col: t.Col, Val: t.Val.seeds()}
		}
		c = spmat.FromLocalTriples(g, acc.NR, acc.NC, cs)
		res.CandidatePairs = c.Nnz()
	})
	tm.AddWork("DetectOverlap", products)
	return c
}

// buildA distributes the |reads| × |k-mers| matrix and its transpose, and
// records the construction on the rank's trace lane and metrics
// (overlap.build_a span; overlap.a_nnz, overlap.a_exchange_bytes counters) so
// a trace separates it from the summa.round spans of the multiply.
func buildA(g *grid.Grid, numReads int, kres *kmer.Result) (a, at *spmat.Dist[kmer.Occur]) {
	lane := g.Comm.Lane()
	start, before := lane.Start(), g.Comm.BytesSent()
	a, at = spmat.FromRowMajor(g, int32(numReads), int32(kres.NumCols), kres.Triples)
	nnz, sent := int64(a.Local.Nnz()), g.Comm.BytesSent()-before
	if reg := g.Comm.Metrics(); reg != nil {
		reg.Counter("overlap.a_nnz").Add(nnz)
		reg.Counter("overlap.a_exchange_bytes").Add(sent)
	}
	if lane != nil {
		lane.Span(0, "overlap", "overlap.build_a", start,
			obs.Arg{K: "a_nnz", V: nnz}, obs.Arg{K: "exchange_bytes", V: sent})
	}
	return a, at
}

// AlignCandidates is the Alignment stage: one backend extension per
// candidate (x-drop or wavefront, per cfg), classification, containment
// pruning, symmetrization into res.R. The candidates are spread over an
// intra-rank worker pool; each worker owns its aligner, and summing the
// per-worker counters afterwards gives the same total as a serial run
// (every pair is aligned exactly once).
func AlignCandidates(g *grid.Grid, store *fasta.DistStore, c *spmat.Dist[Seeds], cfg Config, tm *trace.Timers, res *Result) {
	pool := par.NewPool(cfg.Threads, func(int) align.Aligner { return cfg.aligner() })
	pool.SetTrace(g.Comm.Lane(), "align")
	tm.Stage("Alignment", g.Comm, func() {
		res.R = alignAndPrune(g, store, c, pool, cfg, res)
	})
	var work int64
	for _, al := range pool.States() {
		work += al.Work()
	}
	tm.AddWork("Alignment", work)
}

// alignAndPrune aligns every surviving candidate (one direction per pair)
// through the worker pool's backends, prunes, removes contained reads, and
// returns the symmetric overlap matrix.
func alignAndPrune(g *grid.Grid, store *fasta.DistStore, c *spmat.Dist[Seeds], pool *par.Pool[align.Aligner], cfg Config, res *Result) *spmat.Dist[bidir.Aln] {
	// diBELLA's sequence exchange: row-range sequences via the row
	// communicator, column-range sequences via the transposed rank.
	rowSeqs, colSeqs := store.RowColSequences(g)

	cls := bidir.Params{MaxOverhang: cfg.MaxOverhang}
	// Parallel phase: align and classify each candidate independently,
	// writing by index so the downstream fold is order-deterministic. The
	// LPT weights are the banded-DP cost proxy seeds × (|u|+|v|), keeping
	// the few longest pairs from serializing one worker.
	ts := c.Local.Ts
	kinds := make([]bidir.Kind, len(ts))
	alns := make([]bidir.Aln, len(ts))
	// align.cells: per-pair DP-cell distribution via the aligner's cumulative
	// work counter (each pair is aligned exactly once, so the histogram's
	// count/sum are schedule- and thread-invariant).
	cells := g.Comm.Metrics().Histogram("align.cells")
	alignOne := func(al align.Aligner, i int) {
		t := ts[i]
		u, v := rowSeqs[t.Row-c.RowLo], colSeqs[t.Col-c.ColLo]
		var w0 int64
		if cells != nil {
			w0 = al.Work()
		}
		a := align.BestOf(al, u, v, int32(cfg.K), t.Val.S[:t.Val.N])
		if cells != nil {
			cells.Observe(al.Work() - w0)
		}
		a.U, a.V = t.Row, t.Col
		// Quality gates first: length and score density.
		alnLen := min32(a.EU-a.BU, a.EV-a.BV)
		if alnLen < cfg.MinOverlap || float64(a.Score) < cfg.MinScoreFrac*float64(alnLen) {
			kinds[i] = bidir.Internal // dropped either way
			return
		}
		_, kinds[i] = bidir.Classify(a, cls)
		alns[i] = a
	}
	if pool.Workers() == 1 {
		// Serial pool: skip the weight pass, LPT would ignore it anyway.
		par.ForEach(pool, len(ts), alignOne)
	} else {
		weights := make([]int64, len(ts))
		for i, t := range ts {
			u, v := rowSeqs[t.Row-c.RowLo], colSeqs[t.Col-c.ColLo]
			weights[i] = int64(t.Val.N) * int64(len(u)+len(v))
		}
		par.ForEachBalanced(pool, weights, alignOne)
	}
	// Serial fold in candidate order: identical upper/contained slices for
	// every pool size.
	var upper []spmat.Triple[bidir.Aln]
	var contained []int32
	for i, t := range ts {
		switch kinds[i] {
		case bidir.Dovetail:
			upper = append(upper, spmat.Triple[bidir.Aln]{Row: t.Row, Col: t.Col, Val: alns[i]})
		case bidir.ContainsV:
			contained = append(contained, t.Col)
		case bidir.ContainedU:
			contained = append(contained, t.Row)
		case bidir.Internal:
			// repeat-induced, low-quality, or gate-filtered: drop
		}
	}
	if reg := g.Comm.Metrics(); reg != nil {
		reg.Counter("align.pairs").Add(int64(len(ts)))
		reg.Counter("align.dovetails").Add(int64(len(upper)))
		reg.Counter("align.contained").Add(int64(len(contained)))
	}
	// Replicate the contained-read set (Prune(R, IsContainedRead())).
	flat, _ := mpi.AllgathervFlat(g.Comm, contained)
	sort.Slice(flat, func(i, j int) bool { return flat[i] < flat[j] })
	flat = dedup(flat)
	res.Contained = flat

	rHalf := spmat.NewDist(g, int32(store.N), int32(store.N), upper, nil)
	rHalf.MaskRowsCols(flat)
	res.KeptOverlaps = rHalf.Nnz()
	// Symmetrize: R = half + mirror(half)ᵀ (each pair has exactly one
	// stored direction, so the merge cannot collide).
	rMirror := spmat.Transpose(rHalf, bidir.Aln.Mirror)
	return spmat.Add(rHalf, rMirror, nil)
}

// ToStringGraph classifies every directed overlap into its bidirected edge —
// the value conversion from R to the string matrix domain. Classification
// cannot fail here: containment and internal matches were pruned.
func ToStringGraph(r *spmat.Dist[bidir.Aln], maxOverhang int32) *spmat.Dist[bidir.Edge] {
	p := bidir.Params{MaxOverhang: maxOverhang}
	out := spmat.FromGlobalTriples[bidir.Edge](r.G, r.NR, r.NC, nil, nil)
	ts := make([]spmat.Triple[bidir.Edge], 0, r.Local.Nnz())
	for _, t := range r.Local.Ts {
		e, kind := bidir.Classify(t.Val, p)
		if kind != bidir.Dovetail {
			panic("overlap: non-dovetail alignment survived pruning")
		}
		ts = append(ts, spmat.Triple[bidir.Edge]{Row: t.Row, Col: t.Col, Val: e})
	}
	out.Local = spmat.NewCOO(r.NR, r.NC, ts, nil)
	return out
}

func dedup(xs []int32) []int32 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
