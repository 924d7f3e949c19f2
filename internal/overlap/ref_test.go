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
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/obs"
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
		var buf [2]align.Seed
		for i, s := range t.Val.unpack(&buf) {
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
// configurations: candidate pairs, pairs the schedule aligned (per phase),
// pairs phase 2 skipped by the containment bound and phase-1 picks whose
// predicted-contained read did not end up contained.
type schedTotals struct {
	candidates, phase1, phase2, skippedBound, mispredicted atomic.Int64
}

// pairCounters reads the Alignment stage's pair counters off a rank's
// registry: candidates, aligned, skipped with both reads in K₁, skipped by
// the containment bound.
func pairCounters(reg *obs.Registry) [4]int64 {
	var n [4]int64
	for i, name := range []string{"align.pairs", "align.pairs_aligned", "align.pairs_skipped_contained", "align.pairs_skipped_bound"} {
		n[i] = reg.Counter(name).Value()
	}
	return n
}

// alignCounted runs the Alignment stage and returns what it added to the
// rank's pair counters (pairCounters order), after checking that every
// candidate was counted once: align.pairs = pairs_aligned +
// pairs_skipped_contained + pairs_skipped_bound.
func alignCounted(c *mpi.Comm, g *grid.Grid, store *fasta.DistStore, cands *spmat.Dist[Seeds], cfg Config, tm *trace.Timers, res *Result, where string) [4]int64 {
	before := pairCounters(c.Metrics())
	AlignCandidates(g, store, cands, cfg, tm, res)
	n := pairCounters(c.Metrics())
	for i := range n {
		n[i] -= before[i]
	}
	if n[0] != int64(len(cands.Local.Ts)) || n[0] != n[1]+n[2]+n[3] {
		panic(fmt.Sprintf("%s: align.pairs %d (%d local candidates) ≠ aligned %d + skipped contained %d + skipped bound %d",
			where, n[0], len(cands.Local.Ts), n[1], n[2], n[3]))
	}
	return n
}

// runWithMetrics runs fn on p in-process ranks that each have a metric
// registry.
func runWithMetrics(p int, fn func(*mpi.Comm)) error {
	w := mpi.NewWorld(p)
	w.SetObs(nil, obs.NewMetricSet(p))
	return w.Run(fn)
}

// backendConfigs are the two alignment backends the differential tests run,
// both scoring in cfg.Align's units.
func backendConfigs(cfg Config) map[string]Config {
	wcfg := cfg
	wcfg.NewAligner = func() align.Aligner { return wfa.New(wfa.DualParams(cfg.Align)) }
	return map[string]Config{"xdrop": cfg, "wfa": wcfg}
}

// diffAgainstRef runs CountKmer and DetectOverlap once on P ranks, then for
// both backends holds the scheduled Alignment stage at Threads 1 and 3 to the
// exhaustive reference on the same candidates: equal R triples on every rank,
// equal Contained, CandidatePairs and KeptOverlaps, equal aligner work at
// both thread counts, and pair counters that account for every candidate.
func diffAgainstRef(t *testing.T, label string, seqs [][]byte, p int, cfg Config, tot *schedTotals) {
	t.Helper()
	err := runWithMetrics(p, func(c *mpi.Comm) {
		g := grid.New(c)
		store := fasta.FromGlobal(c, seqs)
		cands, _ := DetectCandidates(g, store, countKmers(store, cfg))
		detected := cands.Nnz()
		tot.candidates.Add(int64(len(cands.Local.Ts)))
		rowSeqs, colSeqs := store.RowColSequences(g)
		picks := containmentPicks(cands, rowSeqs, colSeqs, int32(cfg.K))
		for _, backend := range []string{"xdrop", "wfa"} {
			bcfg := backendConfigs(cfg)[backend]
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
				res := &Result{CandidatePairs: detected}
				tm := trace.New()
				where := fmt.Sprintf("%s P=%d %s threads=%d rank %d", label, p, backend, threads, c.Rank())
				counts := alignCounted(c, g, store, cands, bcfg, tm, res, where)
				if !reflect.DeepEqual(res.R.Local.Ts, wantR.Local.Ts) {
					panic(fmt.Sprintf("%s: R has %d local triples that differ from the reference's %d", where, len(res.R.Local.Ts), len(wantR.Local.Ts)))
				}
				if !reflect.DeepEqual(res.Contained, wantContained) {
					panic(fmt.Sprintf("%s: Contained %v, reference %v", where, res.Contained, wantContained))
				}
				if res.KeptOverlaps != wantKept || res.CandidatePairs != detected {
					panic(fmt.Sprintf("%s: KeptOverlaps %d (reference %d), CandidatePairs %d (detected %d)",
						where, res.KeptOverlaps, wantKept, res.CandidatePairs, detected))
				}
				p1, p2 := tm.Entry(SubStagePhase1).Work, tm.Entry(SubStagePhase2).Work
				if p1 != int64(len(picks)) || p1+p2 > int64(len(cands.Local.Ts)) || p1+p2 != counts[1] {
					panic(fmt.Sprintf("%s: phases aligned %d+%d of %d candidates, %d picks, align.pairs_aligned %d",
						where, p1, p2, len(cands.Local.Ts), len(picks), counts[1]))
				}
				work := tm.Entry("Alignment").Work
				if threads == 1 {
					work1 = work
					tot.phase1.Add(p1)
					tot.phase2.Add(p2)
					tot.skippedBound.Add(counts[3])
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

// diffInput is one input of the differential tests: reads and the stage
// configuration they run with.
type diffInput struct {
	name string
	seqs [][]byte
	cfg  Config
}

// errorRates are the simulated error rates of the differential inputs.
var errorRates = []float64{0, 0.005, 0.03, 0.15}

// errorRateInput simulates reads at errorRates[ei].
func errorRateInput(ei int) diffInput {
	rate := errorRates[ei]
	genome := readsim.Genome(readsim.GenomeConfig{Length: 6000, Seed: int64(100 + ei)})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 14, MeanLen: 1000, ErrorRate: rate, Seed: int64(200 + ei)}))
	return diffInput{fmt.Sprintf("error %v", rate), reads, errorConfig(rate)}
}

// tilingInput is equal-length reads tiling a genome, every third one
// reverse-complemented: no read is contained.
func tilingInput() diffInput {
	genome := readsim.Genome(readsim.GenomeConfig{Length: 12000, Seed: 31})
	var seqs [][]byte
	for pos := 0; pos+1500 <= len(genome); pos += 350 {
		seq := genome[pos : pos+1500]
		if len(seqs)%3 == 1 {
			seq = dna.RevComp(seq)
		}
		seqs = append(seqs, seq)
	}
	return diffInput{"tiling", seqs, testConfig(21, 20)}
}

// duplicatesInput is simulated reads plus exact and reverse-complement
// copies of half of them, and third copies of a sixth.
func duplicatesInput() diffInput {
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
	return diffInput{"duplicates", reads, testConfig(21, 20)}
}

// indelHeavyInput is reads whose errors are all deletions (even ids) or all
// insertions (odd ids), short ones nested a few bases inside long ones.
func indelHeavyInput() diffInput {
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
	return diffInput{"indel-heavy", seqs, cfg}
}

// TestScheduledAlignmentMatchesExhaustive is the stage-level differential
// test of the containment-first schedule, the containment bound and the
// chained-seed skip on simulated reads: every error rate × grid size ×
// backend × thread count gives the reference's R, Contained and counters,
// while a real share of the candidates is never aligned.
func TestScheduledAlignmentMatchesExhaustive(t *testing.T) {
	for ei, rate := range errorRates {
		in := errorRateInput(ei)
		var tot schedTotals
		for _, p := range gridSizes() {
			diffAgainstRef(t, in.name, in.seqs, p, in.cfg, &tot)
		}
		cand, p1, p2, bound := tot.candidates.Load(), tot.phase1.Load(), tot.phase2.Load(), tot.skippedBound.Load()
		t.Logf("error %v: %d reads; over %v ranks and both backends %d candidate pairs, aligned %d + %d, %d skipped by the bound, %d picks mispredicted",
			rate, len(in.seqs), gridSizes(), 2*cand, p1, p2, bound, tot.mispredicted.Load())
		if cand < 100 || p1 == 0 {
			t.Fatalf("error %v: %d candidates, %d phase-1 pairs: the input does not exercise the schedule", rate, cand, p1)
		}
		if rate <= 0.03 && 4*(p1+p2) > 3*2*cand {
			t.Fatalf("error %v: %d of %d candidate pairs still aligned, want under three quarters", rate, p1+p2, 2*cand)
		}
		if (rate == 0.005 || rate == 0.03) && bound == 0 {
			t.Fatalf("error %v: the containment bound skipped no pair: the input does not exercise it", rate)
		}
	}
}

// TestScheduleNoReadContained: equal-length reads tiling a genome contain
// nothing, so no candidate predicts a containment — phase 1 is empty, nothing
// is skipped, and the stage is the exhaustive one.
func TestScheduleNoReadContained(t *testing.T) {
	in := tilingInput()
	for _, p := range gridSizes() {
		var tot schedTotals
		diffAgainstRef(t, in.name, in.seqs, p, in.cfg, &tot)
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
	in := duplicatesInput()
	for _, p := range gridSizes() {
		var tot schedTotals
		diffAgainstRef(t, in.name, in.seqs, p, in.cfg, &tot)
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
	in := indelHeavyInput()
	var tot schedTotals
	for _, p := range gridSizes() {
		diffAgainstRef(t, in.name, in.seqs, p, in.cfg, &tot)
	}
	t.Logf("%d candidate pairs, aligned %d + %d, %d picks mispredicted",
		2*tot.candidates.Load(), tot.phase1.Load(), tot.phase2.Load(), tot.mispredicted.Load())
	if tot.mispredicted.Load() == 0 || tot.phase1.Load() == 0 {
		t.Fatalf("%d phase-1 pairs, %d mispredicted: the input does not defeat the prediction", tot.phase1.Load(), tot.mispredicted.Load())
	}
}

// TestBoundSkippedPairsCannotProveContainment holds phase 2's containment
// bound to what it claims on every differential input, at every grid size
// (gridSizes) with both backends. The test rebuilds K₁ itself (phase 1's
// picks aligned, gated, classified and all-gathered), lists the pairs with
// exactly one read in K₁ whose seeds the bound rules out, aligns each anyway
// and requires that none passes MinOverlap and the score gate as a
// containment of the read not in K₁. The stage's align.pairs_skipped_bound
// must count the same pairs.
func TestBoundSkippedPairsCannotProveContainment(t *testing.T) {
	inputs := []diffInput{tilingInput(), duplicatesInput(), indelHeavyInput()}
	for ei := range errorRates {
		inputs = append(inputs, errorRateInput(ei))
	}
	var total atomic.Int64
	for _, in := range inputs {
		for _, p := range gridSizes() {
			err := runWithMetrics(p, func(c *mpi.Comm) {
				g := grid.New(c)
				store := fasta.FromGlobal(c, in.seqs)
				cands, _ := DetectCandidates(g, store, countKmers(store, in.cfg))
				for backend, cfg := range backendConfigs(in.cfg) {
					where := fmt.Sprintf("%s P=%d %s rank %d", in.name, p, backend, c.Rank())
					skipped := boundSkippedPairs(c, g, store, cands, cfg, where)
					res := &Result{}
					if n := alignCounted(c, g, store, cands, cfg, trace.New(), res, where); n[3] != skipped {
						panic(fmt.Sprintf("%s: the stage skipped %d pairs by the bound, the test derived %d", where, n[3], skipped))
					}
					total.Add(skipped)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d bound-skipped pairs aligned anyway, none a containment", total.Load())
	if total.Load() == 0 {
		t.Fatal("the bound skipped no pair on any input")
	}
}

// boundSkippedPairs derives this rank's bound-skipped pairs from phase 1's
// picks, aligns each and panics if one passes the gates as a containment of
// its read outside K₁. It returns how many there were.
func boundSkippedPairs(c *mpi.Comm, g *grid.Grid, store *fasta.DistStore, cands *spmat.Dist[Seeds], cfg Config, where string) int64 {
	rowSeqs, colSeqs := store.RowColSequences(g)
	k := int32(cfg.K)
	cls := bidir.Params{MaxOverhang: cfg.MaxOverhang}
	al := cfg.aligner()
	ts := cands.Local.Ts
	// alignGated aligns candidate i and returns its class, Internal when it
	// fails MinOverlap or the score gate.
	alignGated := func(i int32) bidir.Kind {
		tr := ts[i]
		var buf [2]align.Seed
		a := align.BestOf(al, rowSeqs[tr.Row-cands.RowLo], colSeqs[tr.Col-cands.ColLo], k, tr.Val.unpack(&buf))
		a.U, a.V = tr.Row, tr.Col
		alnLen := min(a.EU-a.BU, a.EV-a.BV)
		if alnLen < cfg.MinOverlap || float64(a.Score) < cfg.MinScoreFrac*float64(alnLen) {
			return bidir.Internal
		}
		_, kind := bidir.Classify(a, cls)
		return kind
	}
	picks := containmentPicks(cands, rowSeqs, colSeqs, k)
	isPick := map[int32]bool{}
	var found []int32
	for _, i := range picks {
		isPick[i] = true
		switch alignGated(i) {
		case bidir.ContainedU:
			found = append(found, ts[i].Row)
		case bidir.ContainsV:
			found = append(found, ts[i].Col)
		}
	}
	flat, _ := mpi.AllgathervFlat(c, found)
	k1 := map[int32]bool{}
	for _, id := range flat {
		k1[id] = true
	}
	var skipped int64
	for i, tr := range ts {
		if isPick[int32(i)] || k1[tr.Row] == k1[tr.Col] {
			continue
		}
		kind := bidir.ContainedU // v is in K₁: only proving u contained matters
		if k1[tr.Row] {
			kind = bidir.ContainsV
		}
		lu, lv := int32(len(rowSeqs[tr.Row-cands.RowLo])), int32(len(colSeqs[tr.Col-cands.ColLo]))
		var buf [2]align.Seed
		if cfg.Align.MayContain(kind, lu, lv, k, tr.Val.unpack(&buf), cfg.MinScoreFrac) {
			continue
		}
		skipped++
		if got := alignGated(int32(i)); got == kind {
			panic(fmt.Sprintf("%s: pair (%d,%d) was skipped by the bound but aligns as %v", where, tr.Row, tr.Col, got))
		}
	}
	return skipped
}

// TestColumnProductMatchesSUMMA gates the owners' multiply against the SUMMA
// path it replaced: on the seven differential inputs × P ∈ {1, 4, 9, 16}, in
// blocking and nonblocking mode, every rank's block of C from
// DetectCandidates — candidates and seeds — and the products summed over the
// ranks equal those of spmat.SpGEMMPanels over spmat.FromRows of
// CountAndBuild's row triples.
func TestColumnProductMatchesSUMMA(t *testing.T) {
	inputs := []diffInput{tilingInput(), duplicatesInput(), indelHeavyInput()}
	for ei := range errorRates {
		inputs = append(inputs, errorRateInput(ei))
	}
	sum := func(x, y int64) int64 { return x + y }
	for _, in := range inputs {
		for _, p := range []int{1, 4, 9, 16} {
			for _, async := range []bool{false, true} {
				var cands int64
				err := mpi.Run(p, func(c *mpi.Comm) {
					g := grid.New(c)
					store := fasta.FromGlobal(c, in.seqs)
					var got *spmat.Dist[Seeds]
					var want []spmat.Triple[Seeds]
					var gotProducts, wantProducts int64
					mpitest.InMode(c, async, func() {
						kres, rowTriples := kmer.CountAndBuild(store, in.cfg.K, 2, 80, 1)
						got, gotProducts = DetectCandidates(g, store, kres)
						a := spmat.FromRows(g, int32(store.N), int32(kres.NumCols), rowTriples)
						want = spmat.SpGEMMPanels(a, seedSemiring, &wantProducts).Local.Ts
					})
					if !reflect.DeepEqual(got.Local.Ts, want) {
						panic(fmt.Sprintf("rank %d: %d candidates differ from SUMMA's %d", c.Rank(), len(got.Local.Ts), len(want)))
					}
					if a, b := mpi.Allreduce(c, gotProducts, sum), mpi.Allreduce(c, wantProducts, sum); a != b {
						panic(fmt.Sprintf("%d products, SUMMA formed %d", a, b))
					}
					if n := got.Nnz(); c.Rank() == 0 {
						cands = n
					}
				})
				if err != nil {
					t.Fatalf("%s P=%d async=%v: %v", in.name, p, async, err)
				}
				if cands < 50 {
					t.Fatalf("%s P=%d: %d candidates: the input does not exercise the multiply", in.name, p, cands)
				}
			}
		}
	}
}
