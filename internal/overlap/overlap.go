// Package overlap implements the overlap-detection and alignment stages of
// Algorithm 1 (lines 3–9): computing the candidate matrix C = A·Aᵀ of the
// |reads| × |k-mers| matrix A with a seed-collecting semiring — each rank
// multiplies the columns of A it counted, and the partials merge on C's 2D
// blocks — running x-drop alignment on every candidate
// pair, and pruning low-quality alignments and contained reads to obtain the
// overlap matrix R.
package overlap

import (
	"errors"
	"fmt"
	"slices"

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

// Seeds is the nonzero payload of the candidate matrix C, as the SpGEMM
// accumulates it: the two smallest distinct shared k-mer seeds of a read pair
// (BELLA's policy) as ascending packed keys (seedKey), an unused slot holding
// noSeed. Keeping the two smallest makes the semiring addition associative,
// commutative and idempotent — required for partials formed from any split of
// A's columns to merge into the same C.
type Seeds [2]uint64

// noSeed marks an unused slot. It is above every real key (bit 32 of a key is
// always clear), so an empty slot loses every comparison without a count
// field.
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
func (c *Seeds) add(k uint64) {
	if k < c[0] {
		c[0], c[1] = k, c[0]
	} else if k != c[0] && k < c[1] {
		c[1] = k
	}
}

// unpack writes the pair's one or two seeds into buf, on the caller's stack.
func (c *Seeds) unpack(buf *[2]align.Seed) []align.Seed {
	buf[0] = unpackSeed(c[0])
	if c[1] == noSeed {
		return buf[:1]
	}
	buf[1] = unpackSeed(c[1])
	return buf[:2]
}

// Check reports what makes s no value the multiply gives a pair of reads of
// lengths lu and lv: an empty first slot, a key with bit 32 set (an unused
// second slot is noSeed exactly), keys that do not strictly ascend, or a seed
// whose k-base window does not lie inside both reads — what alignment would
// otherwise index past a read with.
func (s Seeds) Check(lu, lv, k int32) error {
	if s[0] == noSeed {
		return errors.New("the first seed slot is empty")
	}
	for i, key := range s {
		if i == 1 && key == noSeed {
			break
		}
		if key&(1<<32) != 0 {
			return fmt.Errorf("seed key %#x has bit 32 set", key)
		}
		if i == 1 && key <= s[0] {
			return fmt.Errorf("seed keys %#x, %#x do not strictly ascend", s[0], key)
		}
		if sd := unpackSeed(key); int64(sd.PU)+int64(k) > int64(lu) || int64(sd.PV)+int64(k) > int64(lv) {
			return fmt.Errorf("seed at %d, %d: its %d-base window ends past a read of %d or %d bases", sd.PU, sd.PV, k, lu, lv)
		}
	}
	return nil
}

// seedSemiring builds C = A·Aᵀ: multiplying occurrence A(i,k) with
// Aᵀ(k,j) yields a shared-seed candidate for pair (i,j), folded in place into
// the cell's two-key accumulator — a whole run of k's occurrences per call,
// none annihilated. Keeping the two smallest distinct keys is associative,
// commutative and idempotent, as merging partials formed from any split of
// A's columns requires.
var seedSemiring = spmat.Semiring[kmer.Occur, kmer.Occur, Seeds]{
	Fold: func(acc *spmat.Acc[Seeds], rows []int32, vals []kmer.Occur, rowLo int32, b kmer.Occur) {
		vals = vals[:len(rows)] // one bounds check for the loop
		for i, r := range rows {
			k := seedKey(vals[i], b)
			if c, live := acc.Slot(r - rowLo); live {
				c.add(k)
			} else {
				*c = Seeds{k, noSeed}
				acc.Claim(r - rowLo)
			}
		}
	},
	Add: func(a, b Seeds) Seeds {
		a.add(b[0])
		a.add(b[1])
		return a
	},
}

// Config parameterizes the Alignment stage.
type Config struct {
	K int // k-mer length (paper: 31 low-error, 17 H. sapiens): the seeds' length
	// Align is the scoring every backend reports its Score in (NewAligner's
	// too): phase 2's containment bound reads it.
	Align align.Params
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
}

// aligner instantiates this rank's alignment backend.
func (c Config) aligner() align.Aligner {
	if c.NewAligner != nil {
		return c.NewAligner()
	}
	return align.NewXDrop(c.Align)
}

// Result is the overlap phase's output: the k-mer and candidate counts the
// DetectOverlap stage records, and R, the contained reads and the kept count
// AlignCandidates fills in.
type Result struct {
	NumKmers  int                    // reliable k-mer columns of A
	R         *spmat.Dist[bidir.Aln] // symmetric overlap matrix
	Contained []int32                // reads removed as contained (global, replicated)
	// Counters (global, replicated); each candidate pair is counted once
	// (the checkerboard keeps one direction per pair).
	CandidatePairs int64 // candidate read pairs (not all are aligned, see alignAndPrune)
	KeptOverlaps   int64 // pairs surviving as dovetails
}

// DetectCandidates is the DetectOverlap stage: C = A·Aᵀ under the
// checkerboard mask, so the diagonal and the mirrored direction of every pair
// are never multiplied or accumulated (C is symmetric and each pair must be
// aligned exactly once). The mirror entry is reconstructed after alignment.
// Each rank multiplies the columns of A the counting stage left on it — the
// k-mers it counted, with every read that holds them — into a partial of C
// (spmat.ColumnProduct), and one exchange routes the partials to C's 2D
// blocks, where the seed semiring's Add merges them (spmat.NewDist). Add
// keeps the two smallest distinct seed keys, which is associative,
// commutative and idempotent, and the mask is a function of the cell, so C
// is the same, bit for bit, however A's columns are split over the ranks
// (DESIGN.md §4). The returned candidate matrix is not mutated by
// AlignCandidates, so one candidate set can feed several alignment runs. It
// also returns the semiring products this rank evaluated, the stage's work
// units. The two steps are the overlap.multiply and overlap.partial_exchange
// spans of the rank's trace lane; overlap.a_nnz, overlap.partials and
// overlap.partial_bytes count the rank's nonzeros of A, the partial cells it
// sends and the bytes that carries.
func DetectCandidates(g *grid.Grid, store *fasta.DistStore, kres *kmer.Result) (c *spmat.Dist[Seeds], products int64) {
	n := int32(store.N)
	lane, reg := g.Comm.Lane(), g.Comm.Metrics()
	nnz := int64(kres.Cols.Nnz())
	start := lane.Start()
	partial := spmat.ColumnProduct(g.Comm, n, kres.Cols, seedSemiring, &products)
	cells := int64(len(partial))
	if lane != nil {
		lane.Span(0, "overlap", "overlap.multiply", start,
			obs.Arg{K: "a_nnz", V: nnz}, obs.Arg{K: "products", V: products}, obs.Arg{K: "partials", V: cells})
	}
	start, before := lane.Start(), g.Comm.BytesSent()
	c = spmat.NewDist(g, n, n, partial, seedSemiring.Add)
	sent := g.Comm.BytesSent() - before
	if reg != nil {
		reg.Counter("overlap.a_nnz").Add(nnz)
		reg.Counter("overlap.partials").Add(cells)
		reg.Counter("overlap.partial_bytes").Add(sent)
	}
	if lane != nil {
		lane.Span(0, "overlap", "overlap.partial_exchange", start,
			obs.Arg{K: "partials", V: cells}, obs.Arg{K: "exchange_bytes", V: sent})
	}
	return c, products
}

// The Alignment stage's two phases as trace sub-stages (nested under
// "Alignment"; package pipeline's stage table lists them): wall time and
// traffic per phase, and as work units the candidate pairs the phase aligned —
// their sum is the run's aligned-pair count, the rest of CandidatePairs was
// skipped.
const (
	SubStagePhase1 = "AL:Phase1"
	SubStagePhase2 = "AL:Phase2"
)

// AlignCandidates is the Alignment stage: backend extension (x-drop or
// wavefront, per cfg) of every candidate whose result can change R,
// classification, containment pruning, symmetrization into res.R. The pairs
// are spread over an intra-rank worker pool; each worker owns its aligner,
// and summing the per-worker counters afterwards gives the same total as a
// serial run (every aligned pair is aligned exactly once). The phases are
// sub-stage rows of tm; the returned aligner work (DP cells or wavefront
// offsets) is the stage's work units.
func AlignCandidates(g *grid.Grid, store *fasta.DistStore, c *spmat.Dist[Seeds], cfg Config, tm *trace.Timers, res *Result) (work int64) {
	pool := par.NewPool(cfg.Threads, func(int) align.Aligner { return cfg.aligner() })
	pool.SetTrace(g.Comm.Lane(), "align")
	res.R = alignAndPrune(g, store, c, pool, cfg, tm, res)
	for _, al := range pool.States() {
		work += al.Work()
	}
	return work
}

// containmentPicks chooses phase 1's candidates: for each local row read and
// each local column read, the one candidate whose first seed predicts that
// read most deeply contained in its partner. The seed's diagonal d
// (align.Seed.Diag) places v at [d, d+LV) on u's axis; u lies inside v with
// margin min(−d, d+LV−LU) to v's two ends, v inside u with margin
// min(d, LU−d−LV). A read with no candidate of margin ≥ 0 gets no pick.
// Returns candidate indices, ascending and distinct (at most rows+cols of
// them); ties keep the earliest candidate, so the list is a function of c
// alone.
func containmentPicks(c *spmat.Dist[Seeds], rowSeqs, colSeqs [][]byte, k int32) []int32 {
	// One flat slice pair, local rows first, then local columns.
	nr := len(rowSeqs)
	n := nr + len(colSeqs)
	buf := make([]int32, 2*n)
	for i := range buf {
		buf[i] = -1
	}
	best, margin := buf[:n], buf[n:]
	for i, t := range c.Local.Ts {
		r, cc := int(t.Row-c.RowLo), int(t.Col-c.ColLo)
		lu, lv := int32(len(rowSeqs[r])), int32(len(colSeqs[cc]))
		d := unpackSeed(t.Val[0]).Diag(lv, k)
		if m := min(-d, d+lv-lu); m > margin[r] {
			best[r], margin[r] = int32(i), m
		}
		if m := min(d, lu-d-lv); m > margin[nr+cc] {
			best[nr+cc], margin[nr+cc] = int32(i), m
		}
	}
	picks := best[:0]
	for _, i := range best {
		if i >= 0 {
			picks = append(picks, i)
		}
	}
	slices.Sort(picks)
	return slices.Compact(picks)
}

// alignAndPrune aligns the candidates (one direction per pair) through the
// worker pool's backends on a containment-first schedule, prunes, removes
// contained reads, and returns the symmetric overlap matrix.
//
// Most reads of a deep dataset end up contained, and Prune(R,
// IsContainedRead()) deletes every overlap that touches one — so phase 1
// aligns the few pairs most likely to prove a read contained
// (containmentPicks), the ids found are replicated as the set K₁, and phase 2
// aligns every other candidate except those whose two reads are both in K₁
// and those with one read in K₁ whose seeds rule out an alignment that passes
// the quality gate and proves the other read contained
// (align.Params.MayContain). The output does not depend on the prediction: a
// skipped pair could only have named a read already in Contained or produced
// a dovetail touching Contained, which never enters R, and a read phase 1
// misses keeps all its pairs (DESIGN.md §3). Both phase lists are built
// serially from c and results are written by candidate index, so R, the
// counters and the aligners' work are the same for every pool size. R is
// placed by one routing: each kept dovetail travels with its mirror.
func alignAndPrune(g *grid.Grid, store *fasta.DistStore, c *spmat.Dist[Seeds], pool *par.Pool[align.Aligner], cfg Config, tm *trace.Timers, res *Result) *spmat.Dist[bidir.Aln] {
	// diBELLA's sequence exchange: row-range sequences via the row
	// communicator, column-range sequences via the transposed rank.
	rowSeqs, colSeqs := store.RowColSequences(g)

	cls := bidir.Params{MaxOverhang: cfg.MaxOverhang}
	k := int32(cfg.K)
	ts := c.Local.Ts
	// A candidate that is never aligned stays Internal: dropped by the fold.
	kinds := make([]bidir.Kind, len(ts))
	for i := range kinds {
		kinds[i] = bidir.Internal
	}
	alns := make([]bidir.Aln, len(ts))
	reg := g.Comm.Metrics()
	// align.cells: per-aligned-pair DP-cell distribution via the aligner's
	// cumulative work counter (each such pair is aligned exactly once, so the
	// histogram's count/sum are schedule- and thread-invariant).
	cells := reg.Histogram("align.cells")
	chainedSeeds := reg.Counter("align.seeds_skipped_chained")
	readsOf := func(i int32) (u, v []byte) {
		t := &ts[i]
		return rowSeqs[t.Row-c.RowLo], colSeqs[t.Col-c.ColLo]
	}
	alignOne := func(al align.Aligner, i int32) {
		var buf [2]align.Seed
		u, v := readsOf(i)
		seeds := ts[i].Val.unpack(&buf)
		var w0 int64
		if cells != nil {
			w0 = al.Work()
		}
		a := align.BestOf(al, u, v, k, seeds)
		if cells != nil {
			cells.Observe(al.Work() - w0)
			chainedSeeds.Add(int64(len(seeds) - align.Extensions(al, k, seeds)))
		}
		a.U, a.V = ts[i].Row, ts[i].Col
		// Quality gates first: length and score density.
		alnLen := min(a.EU-a.BU, a.EV-a.BV)
		if alnLen < cfg.MinOverlap || float64(a.Score) < cfg.MinScoreFrac*float64(alnLen) {
			return // dropped either way
		}
		_, kinds[i] = bidir.Classify(a, cls)
		alns[i] = a
	}
	// known is the replicated contained-read set: K₁ after phase 1, all of
	// Contained after phase 2. found counts the ids this rank announced.
	known := make([]bool, store.N)
	var nKnown, found int
	// phase aligns the listed candidates in parallel, each independently,
	// writing by candidate index so what follows is order-deterministic,
	// then all-gathers the reads they prove contained that known does not
	// hold yet (each id once per rank) and marks every rank's finds. It is
	// one trace sub-stage.
	phase := func(name string, idx []int32) {
		tm.Stage(name, g.Comm, func() {
			if pool.Workers() == 1 {
				// Serial pool: skip the weight pass, LPT would ignore it.
				par.ForEach(pool, len(idx), func(al align.Aligner, j int) { alignOne(al, idx[j]) })
			} else {
				// The LPT weights are the banded-DP cost proxy
				// extensions × (|u|+|v|), keeping the few longest pairs
				// from serializing one worker.
				al0 := pool.States()[0]
				weights := make([]int64, len(idx))
				var buf [2]align.Seed
				for j, i := range idx {
					u, v := readsOf(i)
					seeds := ts[i].Val.unpack(&buf)
					weights[j] = int64(align.Extensions(al0, k, seeds)) * int64(len(u)+len(v))
				}
				par.ForEachBalanced(pool, weights, func(al align.Aligner, j int) { alignOne(al, idx[j]) })
			}
			ids := make([]int32, 0, min(len(idx), len(known)-nKnown))
			for _, i := range idx {
				id := ts[i].Col
				switch kinds[i] {
				case bidir.ContainedU:
					id = ts[i].Row
				case bidir.ContainsV:
				default:
					continue
				}
				if !known[id] {
					known[id] = true
					nKnown++
					ids = append(ids, id)
				}
			}
			found += len(ids)
			// Replicate the contained reads (Prune(R, IsContainedRead())).
			flat, _ := mpi.AllgathervFlat(g.Comm, ids)
			for _, id := range flat {
				if !known[id] {
					known[id] = true
					nKnown++
				}
			}
		})
		tm.AddWork(name, int64(len(idx)))
	}

	// mayProveOther: can candidate i, one of whose reads is in K₁ (u when
	// uKnown, else v), still prove the other read contained?
	mayProveOther := func(i int32, uKnown bool) bool {
		kind := bidir.ContainedU
		if uKnown {
			kind = bidir.ContainsV
		}
		var buf [2]align.Seed
		u, v := readsOf(i)
		return cfg.Align.MayContain(kind, int32(len(u)), int32(len(v)), k, ts[i].Val.unpack(&buf), cfg.MinScoreFrac)
	}
	picks := containmentPicks(c, rowSeqs, colSeqs, k)
	phase(SubStagePhase1, picks)
	knownPhase1 := nKnown
	rest := make([]int32, 0, len(ts)-len(picks))
	skippedContained, skippedBound := 0, 0
	for i, p := 0, 0; i < len(ts); i++ {
		ku, kv := known[ts[i].Row], known[ts[i].Col]
		switch {
		case p < len(picks) && picks[p] == int32(i):
			p++
		case ku && kv: // both reads already known contained
			skippedContained++
		case ku != kv && !mayProveOther(int32(i), ku):
			skippedBound++
		default:
			rest = append(rest, int32(i))
		}
	}
	phase(SubStagePhase2, rest)
	res.Contained = make([]int32, 0, nKnown)
	for id, is := range known {
		if is {
			res.Contained = append(res.Contained, int32(id))
		}
	}
	// Serial fold in candidate order, the same for every pool size: each
	// dovetail whose two reads are both outside Contained (Prune(R,
	// IsContainedRead())) goes into R with its mirror beside it. Each pair
	// has exactly one stored direction, so the two cannot collide.
	dovetails := 0
	var rts []spmat.Triple[bidir.Aln]
	for i, t := range ts {
		if kinds[i] != bidir.Dovetail {
			continue
		}
		dovetails++
		if !known[t.Row] && !known[t.Col] {
			rts = append(rts, spmat.Triple[bidir.Aln]{Row: t.Row, Col: t.Col, Val: alns[i]},
				spmat.Triple[bidir.Aln]{Row: t.Col, Col: t.Row, Val: alns[i].Mirror()})
		}
	}
	if reg != nil {
		reg.Counter("align.pairs").Add(int64(len(ts)))
		reg.Counter("align.pairs_aligned").Add(int64(len(picks) + len(rest)))
		reg.Counter("align.pairs_skipped_contained").Add(int64(skippedContained))
		reg.Counter("align.pairs_skipped_bound").Add(int64(skippedBound))
		reg.Counter("align.dovetails").Add(int64(dovetails))
		reg.Counter("align.contained").Add(int64(found))
		if g.Comm.Rank() == 0 { // K₁ is replicated: count it once
			reg.Counter("align.contained_known_phase1").Add(int64(knownPhase1))
		}
	}

	r := spmat.NewDist(g, int32(store.N), int32(store.N), rts, nil)
	res.KeptOverlaps = r.Nnz() / 2
	return r
}

// ToStringGraph classifies every directed overlap into its bidirected edge —
// the value conversion from R to the string matrix domain. Classification
// cannot fail here: containment and internal matches were pruned.
func ToStringGraph(r *spmat.Dist[bidir.Aln], maxOverhang int32) *spmat.Dist[bidir.Edge] {
	p := bidir.Params{MaxOverhang: maxOverhang}
	ts := make([]spmat.Triple[bidir.Edge], 0, r.Local.Nnz())
	for _, t := range r.Local.Ts {
		e, kind := bidir.Classify(t.Val, p)
		if kind != bidir.Dovetail {
			panic("overlap: non-dovetail alignment survived pruning")
		}
		ts = append(ts, spmat.Triple[bidir.Edge]{Row: t.Row, Col: t.Col, Val: e})
	}
	// R's block is canonical already, and classification keeps its order.
	return spmat.FromLocalTriples(r.G, r.NR, r.NC, ts)
}
