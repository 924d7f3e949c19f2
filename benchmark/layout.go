package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bidir"
	"repro/internal/dna"
	"repro/internal/readsim"
	"repro/internal/spmat"
)

// Layout-problem constants. The synthetic problem skips k-mers and alignment:
// the overlap matrix R is written down from the simulator's ground truth, so
// the layout workloads spend their whole pass in tr, lacc, partition, core.
const (
	layoutChromosomes = 16
	layoutRatio       = 0.85 // geometric chromosome lengths: len(i+1) = ratio·len(i)
	layoutDepth       = 20
	layoutMeanLen     = 3000
	layoutMinOverlap  = 500
	layoutMaxOverhang = 80  // pipeline.DefaultOptions' classification bound
	layoutTRFuzz      = 150 // pipeline.DefaultOptions' TR parameters
	layoutTRMaxIter   = 10
	// One spurious dovetail endpoint is planted every layoutBranchSpacing
	// bases of every chromosome, at a fixed grid rather than at random, so
	// the contig cut points — and with them contig_n50 — barely move with
	// the seed.
	layoutBranchSpacing = 50000
	layoutSpuriousLen   = 1000
)

// layoutInput is one generated layout problem: the reads (ids already
// shuffled), the full symmetric overlap matrix as global triples, and the
// ground truth the correctness checks need.
type layoutInput struct {
	Chroms  [][]byte
	Reads   []layoutReadRef // indexed by read id
	Seqs    [][]byte        // indexed by read id
	Triples []spmat.Triple[bidir.Aln]
	// Planted lists the read ids that carry a spurious cross-chromosome
	// edge; each must come out of branch removal as a degree-≥3 vertex.
	Planted   []int32
	Contained int
}

// layoutReadRef is the ground truth of one read id.
type layoutReadRef struct {
	Chrom    int
	Pos, End int
	RC       bool
}

// chromLengths splits total bases into n geometric lengths, longest first.
func chromLengths(total, n int, ratio float64) []int {
	var norm, w float64 = 0, 1
	for i := 0; i < n; i++ {
		norm += w
		w *= ratio
	}
	out := make([]int, n)
	w = 1
	for i := range out {
		out[i] = int(float64(total) * w / norm)
		w *= ratio
	}
	return out
}

// truthAln writes the alignment between reads u and v down from their
// reference coordinates: the shared reference interval, mapped onto each
// read's own forward strand.
func truthAln(uid, vid int32, u, v layoutReadRef) bidir.Aln {
	s, e := max(u.Pos, v.Pos), min(u.End, v.End)
	onRead := func(r layoutReadRef) (int32, int32) {
		if r.RC {
			return int32(r.End - e), int32(r.End - s)
		}
		return int32(s - r.Pos), int32(e - r.Pos)
	}
	a := bidir.Aln{U: uid, V: vid, RC: u.RC != v.RC, Score: int32(e - s),
		LU: int32(u.End - u.Pos), LV: int32(v.End - v.Pos)}
	a.BU, a.EU = onRead(u)
	a.BV, a.EV = onRead(v)
	return a
}

// generateLayout builds the layout problem for a seed at the given total
// genome size.
func generateLayout(seed int64, totalBases int) *layoutInput {
	in := &layoutInput{}
	for c, ln := range chromLengths(totalBases, layoutChromosomes, layoutRatio) {
		chrom := readsim.Genome(readsim.GenomeConfig{Length: ln, Seed: seed*1000 + int64(c)})
		in.Chroms = append(in.Chroms, chrom)
		for _, r := range readsim.Simulate(chrom, readsim.ReadConfig{
			Depth: layoutDepth, MeanLen: layoutMeanLen, Seed: seed*1000 + 500 + int64(c),
		}) {
			in.Reads = append(in.Reads, layoutReadRef{Chrom: c, Pos: r.Pos, End: r.End, RC: r.RC})
			in.Seqs = append(in.Seqs, r.Seq)
		}
	}
	// Shuffle ids so a read's rank block says nothing about its locus.
	rand.New(rand.NewSource(seed)).Shuffle(len(in.Reads), func(i, j int) {
		in.Reads[i], in.Reads[j] = in.Reads[j], in.Reads[i]
		in.Seqs[i], in.Seqs[j] = in.Seqs[j], in.Seqs[i]
	})
	contained := make([]bool, len(in.Reads))
	byChrom := make([][]int32, layoutChromosomes)
	for id, r := range in.Reads {
		byChrom[r.Chrom] = append(byChrom[r.Chrom], int32(id))
	}

	// Every pair sharing ≥ layoutMinOverlap reference bases, classified the
	// way the Alignment stage prunes: containments name the read to drop,
	// and only pairs of surviving reads become edges.
	cls := bidir.Params{MaxOverhang: layoutMaxOverhang}
	var pairs []bidir.Aln
	for _, ids := range byChrom {
		sort.Slice(ids, func(i, j int) bool {
			a, b := in.Reads[ids[i]], in.Reads[ids[j]]
			if a.Pos != b.Pos {
				return a.Pos < b.Pos
			}
			return ids[i] < ids[j]
		})
		for i, u := range ids {
			ru := in.Reads[u]
			for _, v := range ids[i+1:] {
				rv := in.Reads[v]
				if rv.Pos > ru.End-layoutMinOverlap {
					break
				}
				if min(ru.End, rv.End)-rv.Pos < layoutMinOverlap {
					continue
				}
				a := truthAln(u, v, ru, rv)
				switch _, kind := bidir.Classify(a, cls); kind {
				case bidir.ContainsV:
					contained[v] = true
				case bidir.ContainedU:
					contained[u] = true
				case bidir.Dovetail:
					pairs = append(pairs, a)
				default:
					panic(fmt.Sprintf("layout: ground-truth overlap %d/%d classified internal", u, v))
				}
			}
		}
	}
	for _, c := range contained {
		if c {
			in.Contained++
		}
	}
	addPair := func(a bidir.Aln) {
		in.Triples = append(in.Triples,
			spmat.Triple[bidir.Aln]{Row: a.U, Col: a.V, Val: a},
			spmat.Triple[bidir.Aln]{Row: a.V, Col: a.U, Val: a.Mirror()})
	}
	for _, a := range pairs {
		if !contained[a.U] && !contained[a.V] {
			addPair(a)
		}
	}

	// Spurious edges: the surviving read nearest each grid point, paired
	// with the one half the list away (always another chromosome when the
	// longest chromosome holds under half the genome), suffix-to-prefix.
	var endpoints []int32
	for _, ids := range byChrom {
		var alive []int32
		for _, id := range ids {
			if !contained[id] {
				alive = append(alive, id)
			}
		}
		ln := len(in.Chroms[in.Reads[ids[0]].Chrom])
		for target := layoutBranchSpacing; target < ln-layoutBranchSpacing/2; target += layoutBranchSpacing {
			k := sort.Search(len(alive), func(i int) bool { return in.Reads[alive[i]].Pos >= target })
			if k > 0 && k < len(alive)-1 { // interior reads only
				endpoints = append(endpoints, alive[k])
			}
		}
	}
	half := len(endpoints) / 2
	for i := 0; i < half; i++ {
		u, v := endpoints[i], endpoints[i+half]
		ru, rv := in.Reads[u], in.Reads[v]
		if ru.Chrom == rv.Chrom {
			continue
		}
		lu, lv := int32(ru.End-ru.Pos), int32(rv.End-rv.Pos)
		ov := min(int32(layoutSpuriousLen), lu/2, lv/2)
		addPair(bidir.Aln{U: u, V: v, BU: lu - ov, EU: lu, BV: 0, EV: ov, Score: ov, LU: lu, LV: lv})
		in.Planted = append(in.Planted, u, v)
	}
	return in
}

// genomeBases sums the chromosome lengths.
func (in *layoutInput) genomeBases() int {
	n := 0
	for _, c := range in.Chroms {
		n += len(c)
	}
	return n
}

// placement is where a verified contig sits on the reference.
type placement struct {
	Chrom, Lo, Hi int
}

// placeContig verifies that a contig is an exact substring of the chromosome
// its reads come from (or of its reverse complement) and returns where: the
// contig must start at the leftmost reference base its reads cover, in one
// of the two strands.
func (in *layoutInput) placeContig(seq []byte, reads []int32) (placement, error) {
	pl, err := in.locate(seq, reads)
	if err != nil {
		return placement{}, err
	}
	window := in.Chroms[pl.Chrom][pl.Lo:pl.Hi]
	if bytes.Equal(seq, window) || bytes.Equal(seq, dna.RevComp(window)) {
		return pl, nil
	}
	return placement{}, fmt.Errorf("contig of %d bases is not a substring of chromosome %d at %d", len(seq), pl.Chrom, pl.Lo)
}

func (in *layoutInput) locate(seq []byte, reads []int32) (placement, error) {
	if len(reads) == 0 {
		return placement{}, fmt.Errorf("contig of %d bases lists no reads", len(seq))
	}
	chrom := in.Reads[reads[0]].Chrom
	lo := in.Reads[reads[0]].Pos
	for _, id := range reads {
		r := in.Reads[id]
		if r.Chrom != chrom {
			return placement{}, fmt.Errorf("contig joins chromosomes %d and %d", chrom, r.Chrom)
		}
		lo = min(lo, r.Pos)
	}
	if lo+len(seq) > len(in.Chroms[chrom]) {
		return placement{}, fmt.Errorf("contig of %d bases overruns chromosome %d from %d", len(seq), chrom, lo)
	}
	return placement{chrom, lo, lo + len(seq)}, nil
}

// coveredBases counts the reference bases under at least one placement.
func (in *layoutInput) coveredBases(pls []placement) int {
	sort.Slice(pls, func(i, j int) bool {
		if pls[i].Chrom != pls[j].Chrom {
			return pls[i].Chrom < pls[j].Chrom
		}
		return pls[i].Lo < pls[j].Lo
	})
	covered, chrom, end := 0, -1, 0
	for _, p := range pls {
		if p.Chrom != chrom {
			chrom, end = p.Chrom, 0
		}
		if p.Hi > end {
			covered += p.Hi - max(p.Lo, end)
			end = p.Hi
		}
	}
	return covered
}

// n50 is the length x such that contigs of length ≥ x hold half the bases.
func n50(lens []int) int {
	sort.Sort(sort.Reverse(sort.IntSlice(lens)))
	total := 0
	for _, l := range lens {
		total += l
	}
	acc := 0
	for _, l := range lens {
		acc += l
		if 2*acc >= total {
			return l
		}
	}
	return 0
}
