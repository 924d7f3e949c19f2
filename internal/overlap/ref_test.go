package overlap

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/align"
	"repro/internal/align/aligntest"
	"repro/internal/bidir"
	"repro/internal/dna"
	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/readsim"
	"repro/internal/spmat"
	"repro/internal/trace"
	"repro/internal/wfa"
)

// alignAndPruneRef is the Alignment stage as Algorithm 1 writes it — every
// candidate pair aligned, every seed extended, Prune(R, IsContainedRead())
// afterwards — kept as the test-only reference the scheduled stage
// (alignAndPrune: one extension per chain of seeds, containment-first
// schedule) is held to. Serial, one aligner per rank.
func alignAndPruneRef(g *grid.Grid, store *fasta.DistStore, c *spmat.Dist[Seeds], cfg Config) (r *spmat.Dist[bidir.Aln], contained []int32, kept int64) {
	rowSeqs, colSeqs := store.RowColSequences(g)
	cls := bidir.Params{MaxOverhang: cfg.MaxOverhang}
	al := cfg.aligner()
	var upper []spmat.Triple[bidir.Aln]
	var local []int32
	for _, t := range c.Local.Ts {
		u, v := rowSeqs[t.Row-c.RowLo], colSeqs[t.Col-c.ColLo]
		var a bidir.Aln
		for i, s := range t.Val.S[:t.Val.N] {
			if x := al.SeedExtend(u, v, int32(cfg.K), s); i == 0 || x.Score > a.Score {
				a = x
			}
		}
		a.U, a.V = t.Row, t.Col
		alnLen := min(a.EU-a.BU, a.EV-a.BV)
		if alnLen < cfg.MinOverlap || float64(a.Score) < cfg.MinScoreFrac*float64(alnLen) {
			continue
		}
		switch _, kind := bidir.Classify(a, cls); kind {
		case bidir.Dovetail:
			upper = append(upper, spmat.Triple[bidir.Aln]{Row: t.Row, Col: t.Col, Val: a})
		case bidir.ContainsV:
			local = append(local, t.Col)
		case bidir.ContainedU:
			local = append(local, t.Row)
		}
	}
	flat, _ := mpi.AllgathervFlat(g.Comm, local)
	sort.Slice(flat, func(i, j int) bool { return flat[i] < flat[j] })
	contained = []int32{}
	for i, id := range flat {
		if i == 0 || flat[i-1] != id {
			contained = append(contained, id)
		}
	}
	rHalf := spmat.NewDist(g, int32(store.N), int32(store.N), upper, nil)
	rHalf.MaskRowsCols(contained)
	kept = rHalf.Nnz()
	return spmat.Add(rHalf, spmat.Transpose(rHalf, bidir.Aln.Mirror), nil), contained, kept
}

// schedTotals is what one differential run saw, summed over ranks and
// configurations: candidate pairs, pairs the schedule aligned (per phase) and
// phase-1 picks whose predicted-contained read did not end up contained.
type schedTotals struct {
	candidates, phase1, phase2, mispredicted atomic.Int64
}

// diffAgainstRef runs CountKmer and DetectOverlap once on P ranks, then for
// both backends holds the scheduled Alignment stage at Threads 1 and 3 to the
// exhaustive reference on the same candidates: equal R triples on every rank,
// equal Contained, CandidatePairs and KeptOverlaps, and equal aligner work at
// both thread counts.
func diffAgainstRef(t *testing.T, label string, seqs [][]byte, p int, cfg Config, tot *schedTotals) {
	t.Helper()
	err := mpi.Run(p, func(c *mpi.Comm) {
		g := grid.New(c)
		store := fasta.FromGlobal(c, seqs)
		base := &Result{NumReads: store.N}
		cands := DetectCandidates(g, store, CountKmers(g, store, cfg, trace.New(), base), cfg, trace.New(), base)
		tot.candidates.Add(int64(len(cands.Local.Ts)))
		rowSeqs, colSeqs := store.RowColSequences(g)
		picks := containmentPicks(cands, rowSeqs, colSeqs, int32(cfg.K))
		for _, backend := range []string{"xdrop", "wfa"} {
			bcfg := cfg
			if backend == "wfa" {
				bcfg.NewAligner = func() align.Aligner { return wfa.New(wfa.DualParams(cfg.Align)) }
			}
			wantR, wantContained, wantKept := alignAndPruneRef(g, store, cands, bcfg)
			isContained := map[int32]bool{}
			for _, id := range wantContained {
				isContained[id] = true
			}
			for _, i := range picks {
				if tr := cands.Local.Ts[i]; !isContained[tr.Row] && !isContained[tr.Col] {
					tot.mispredicted.Add(1)
				}
			}
			var work1 int64
			for _, threads := range []int{1, 3} {
				bcfg.Threads = threads
				res := &Result{NumReads: store.N, CandidatePairs: base.CandidatePairs}
				tm := trace.New()
				AlignCandidates(g, store, cands, bcfg, tm, res)
				where := fmt.Sprintf("%s P=%d %s threads=%d rank %d", label, p, backend, threads, c.Rank())
				if !reflect.DeepEqual(res.R.Local.Ts, wantR.Local.Ts) {
					panic(fmt.Sprintf("%s: R has %d local triples that differ from the reference's %d", where, len(res.R.Local.Ts), len(wantR.Local.Ts)))
				}
				if !reflect.DeepEqual(res.Contained, wantContained) {
					panic(fmt.Sprintf("%s: Contained %v, reference %v", where, res.Contained, wantContained))
				}
				if res.KeptOverlaps != wantKept || res.CandidatePairs != base.CandidatePairs {
					panic(fmt.Sprintf("%s: KeptOverlaps %d (reference %d), CandidatePairs %d (detected %d)",
						where, res.KeptOverlaps, wantKept, res.CandidatePairs, base.CandidatePairs))
				}
				p1, p2 := tm.Entry(SubStagePhase1).Work, tm.Entry(SubStagePhase2).Work
				if p1 != int64(len(picks)) || p1+p2 > int64(len(cands.Local.Ts)) {
					panic(fmt.Sprintf("%s: phases aligned %d+%d of %d candidates, %d picks", where, p1, p2, len(cands.Local.Ts), len(picks)))
				}
				work := tm.Entry("Alignment").Work
				if threads == 1 {
					work1 = work
					tot.phase1.Add(p1)
					tot.phase2.Add(p2)
				} else if work != work1 {
					panic(fmt.Sprintf("%s: aligner work %d, %d at threads=1", where, work, work1))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gridSizes are the rank counts the differential tests run on; the -short
// lap (CI's race detector) keeps the one that has off-diagonal ranks and
// transposed exchanges.
func gridSizes() []int {
	if testing.Short() {
		return []int{4}
	}
	return []int{1, 4, 9}
}

// errorConfig is the stage configuration the differential tests use at one
// error rate: the low-error settings up to 3%, the H. sapiens-like ones
// (shorter k, wider x-drop and overhang, low score density) at 15%.
func errorConfig(rate float64) Config {
	switch {
	case rate >= 0.1:
		cfg := testConfig(15, 30)
		cfg.MinOverlap, cfg.MinScoreFrac, cfg.MaxOverhang = 60, 0.05, 300
		return cfg
	case rate >= 0.02:
		cfg := testConfig(17, 30)
		cfg.MinScoreFrac = 0.3
		return cfg
	}
	return testConfig(17, 20)
}

// TestScheduledAlignmentMatchesExhaustive is the stage-level differential
// test of the containment-first schedule and the chained-seed skip on
// simulated reads: every error rate × grid size × backend × thread count
// gives the reference's R, Contained and counters, while a real share of the
// candidates is never aligned.
func TestScheduledAlignmentMatchesExhaustive(t *testing.T) {
	for ei, rate := range []float64{0, 0.005, 0.03, 0.15} {
		genome := readsim.Genome(readsim.GenomeConfig{Length: 6000, Seed: int64(100 + ei)})
		reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 14, MeanLen: 1000, ErrorRate: rate, Seed: int64(200 + ei)}))
		var tot schedTotals
		for _, p := range gridSizes() {
			diffAgainstRef(t, fmt.Sprintf("error %v", rate), reads, p, errorConfig(rate), &tot)
		}
		cand, p1, p2 := tot.candidates.Load(), tot.phase1.Load(), tot.phase2.Load()
		t.Logf("error %v: %d reads; over %v ranks and both backends %d candidate pairs, aligned %d + %d, %d picks mispredicted",
			rate, len(reads), gridSizes(), 2*cand, p1, p2, tot.mispredicted.Load())
		if cand < 100 || p1 == 0 {
			t.Fatalf("error %v: %d candidates, %d phase-1 pairs: the input does not exercise the schedule", rate, cand, p1)
		}
		if rate <= 0.03 && 4*(p1+p2) > 3*2*cand {
			t.Fatalf("error %v: %d of %d candidate pairs still aligned, want under three quarters", rate, p1+p2, 2*cand)
		}
	}
}

// TestScheduleNoReadContained: equal-length reads tiling a genome contain
// nothing, so no candidate predicts a containment — phase 1 is empty, nothing
// is skipped, and the stage is the exhaustive one.
func TestScheduleNoReadContained(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeConfig{Length: 12000, Seed: 31})
	var seqs [][]byte
	for pos := 0; pos+1500 <= len(genome); pos += 350 {
		seq := genome[pos : pos+1500]
		if len(seqs)%3 == 1 {
			seq = dna.RevComp(seq)
		}
		seqs = append(seqs, seq)
	}
	for _, p := range gridSizes() {
		var tot schedTotals
		diffAgainstRef(t, "tiling", seqs, p, testConfig(21, 20), &tot)
		if cand := tot.candidates.Load(); tot.phase1.Load() != 0 || tot.phase2.Load() != 2*cand || cand == 0 {
			t.Fatalf("P=%d: phases aligned %d + %d of 2×%d candidates, want 0 and all", p, tot.phase1.Load(), tot.phase2.Load(), cand)
		}
	}
}

// TestScheduleDuplicatedReads: exact duplicates (and reverse-complement
// duplicates) classify as perfectly symmetric, where the larger id is the
// contained one — the U < V tie-break. The schedule must remove the same copy
// the reference removes.
func TestScheduleDuplicatedReads(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeConfig{Length: 9000, Seed: 33})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 6, MeanLen: 1200, Seed: 34}))
	n := len(reads)
	for i := 0; i < n; i += 2 {
		dup := reads[i]
		if i%4 == 0 {
			dup = dna.RevComp(dup)
		}
		reads = append(reads, dup)
	}
	for i := 0; i < n; i += 6 { // a third copy, so duplicates meet duplicates
		reads = append(reads, reads[i])
	}
	for _, p := range gridSizes() {
		var tot schedTotals
		diffAgainstRef(t, "duplicates", reads, p, testConfig(21, 20), &tot)
		if tot.phase1.Load() == 0 || tot.phase1.Load()+tot.phase2.Load() >= 2*tot.candidates.Load() {
			t.Fatalf("P=%d: phases aligned %d + %d of 2×%d candidates: duplicates must be picked and pairs skipped",
				p, tot.phase1.Load(), tot.phase2.Load(), tot.candidates.Load())
		}
	}
}

// TestScheduleIndelHeavyReads: reads whose errors are all deletions (even
// ids) or all insertions (odd ids) drift off the first seed's diagonal by
// tens of bases over a read, so the containment prediction is wrong in both
// directions. The output must not depend on it.
func TestScheduleIndelHeavyReads(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	genome := aligntest.RandSeq(rng, 8000)
	indel := func(s []byte, insert bool) []byte {
		var out []byte
		for _, b := range s {
			switch {
			case rng.Float64() >= 0.04:
				out = append(out, b)
			case insert:
				out = append(out, b, dna.Bases[rng.Intn(4)])
			}
		}
		return out
	}
	var seqs [][]byte
	for i := 0; i < 70; i++ {
		// Short reads nested a few bases inside long ones, so a drift of a
		// few tens of bases flips the prediction.
		n := []int{700, 1400, 2100}[i%3]
		pos := rng.Intn(len(genome)-n) / 100 * 100
		seq := indel(genome[pos+rng.Intn(30):pos+n-rng.Intn(30)], i%2 == 1)
		if i%5 == 0 {
			seq = dna.RevComp(seq)
		}
		seqs = append(seqs, seq)
	}
	cfg := testConfig(15, 40)
	cfg.MinScoreFrac, cfg.MaxOverhang = 0.3, 120
	var tot schedTotals
	for _, p := range gridSizes() {
		diffAgainstRef(t, "indel-heavy", seqs, p, cfg, &tot)
	}
	t.Logf("%d candidate pairs, aligned %d + %d, %d picks mispredicted",
		2*tot.candidates.Load(), tot.phase1.Load(), tot.phase2.Load(), tot.mispredicted.Load())
	if tot.mispredicted.Load() == 0 || tot.phase1.Load() == 0 {
		t.Fatalf("%d phase-1 pairs, %d mispredicted: the input does not defeat the prediction", tot.phase1.Load(), tot.mispredicted.Load())
	}
}
