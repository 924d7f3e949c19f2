package kmer

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/readsim"
)

// randParts builds occurrence parts over a small k-mer universe so duplicate
// counts and Bloom collisions are common. Every word below 4²⁵ is a canonical
// k-mer at k = randK (its reverse complement starts with a base other than
// A), so wordRuns turns the parts into run parts of the same k-mers.
const randK = 31

func randParts(rng *rand.Rand, nParts, maxLen, universe int) [][]uint64 {
	parts := make([][]uint64, nParts)
	for r := range parts {
		n := rng.Intn(maxLen + 1)
		parts[r] = make([]uint64, n)
		for i := range parts[r] {
			parts[r][i] = uint64(rng.Intn(universe))
		}
	}
	return parts
}

// TestCountOccurrencesMatchesMap pins the two-phase Bloom-filtered kernel to
// the map reference: for low ≥ 2 every selected k-mer and count must agree;
// for low = 1 (filter bypass) every count must agree exactly.
func TestCountOccurrencesMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		parts := randParts(rng, 1+rng.Intn(5), 400, 1+rng.Intn(300))
		ref := countOccurrencesMap(parts)
		for _, low := range []int32{1, 2, 3} {
			got := CountOccurrences(wordRuns(parts, randK), randK, low)
			// Every k-mer with count ≥ max(low,2) must be admitted with its
			// exact count; admitted singletons (false positives) keep exact
			// count 1.
			for km, want := range ref {
				c, ok := got.Get(km)
				if want >= low && want >= 2 && !ok {
					t.Fatalf("trial %d low=%d: k-mer %d (count %d) missing from table", trial, low, km, want)
				}
				if ok && c != want {
					t.Fatalf("trial %d low=%d: k-mer %d count %d, want %d", trial, low, km, c, want)
				}
			}
			for _, high := range []int32{1, 4, 1 << 20} {
				want := SelectReliable(ref, low, high)
				if sel := reliableOf(got, low, high); !reflect.DeepEqual(sel, want) {
					t.Fatalf("trial %d low=%d high=%d: selection %v, want %v", trial, low, high, sel, want)
				}
			}
		}
	}
}

// TestCountOccurrencesLowBypass checks the low < 2 path admits everything:
// singletons must be counted even though no Bloom filter runs.
func TestCountOccurrencesLowBypass(t *testing.T) {
	parts := [][]uint64{{7, 7, 9}, {11}}
	got := CountOccurrences(wordRuns(parts, randK), randK, 1)
	for km, want := range map[Kmer]int32{7: 2, 9: 1, 11: 1} {
		if c, ok := got.Get(km); !ok || c != want {
			t.Fatalf("k-mer %d: count %d (present=%v), want %d", km, c, ok, want)
		}
	}
	if got.Len() != 3 {
		t.Fatalf("table holds %d k-mers, want 3", got.Len())
	}
}

// TestCounterTinyBloomCollisions forces heavy false-positive pressure with a
// single-block filter: selection over [2, high] must still match the map
// reference exactly, because admitted singletons carry exact count 1.
func TestCounterTinyBloomCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		parts := randParts(rng, 3, 500, 2000)
		c := &counter{k: randK, low: 2, bloom: newBloomBlocks(1), table: NewCountTable()}
		runs := wordRuns(parts, randK)
		for _, p := range runs {
			c.observe(p)
		}
		for _, p := range runs {
			c.tally(p, 0, nil)
		}
		ref := countOccurrencesMap(parts)
		want := SelectReliable(ref, 2, 1<<20)
		if got := reliableOf(c.table, 2, 1<<20); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: tiny-bloom selection diverged (%d vs %d k-mers)", trial, len(got), len(want))
		}
		// The saturated filter admits nearly everything — counts must still
		// be exact for whatever made it in.
		for km, n := range ref {
			if cnt, ok := c.table.Get(km); ok && cnt != n {
				t.Fatalf("trial %d: k-mer %d count %d, want %d", trial, km, cnt, n)
			}
		}
	}
}

// TestCountObserveOrderInvariance shuffles the observation order (the async
// schedule observes parts as they arrive) and checks the reliable selection
// never moves.
func TestCountObserveOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	parts := randParts(rng, 6, 300, 150)
	var occ int
	for _, p := range parts {
		occ += len(p)
	}
	runs := wordRuns(parts, randK)
	base := reliableOf(CountOccurrences(runs, randK, 2), 2, 1<<20)
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(len(parts))
		c := newCounter(randK, 2, occ)
		for _, i := range order {
			c.observe(runs[i])
		}
		for _, p := range runs { // tally always runs in rank order
			c.tally(p, 0, nil)
		}
		if got := reliableOf(c.table, 2, 1<<20); !reflect.DeepEqual(got, base) {
			t.Fatalf("trial %d: selection depends on observe order", trial)
		}
	}
}

// TestCountTableBasics exercises the open-addressing table around growth and
// its use as the column index: MarkReliable keeps exactly the k-mers whose
// count lies in the window, and number gives each of them an id at its first
// slot, answers -1 for the rest and for absent keys, and repeats itself.
func TestCountTableBasics(t *testing.T) {
	tab := NewCountTable()
	const n = 5000 // forces several grows past the floor
	for i := 0; i < n; i++ {
		tab.Admit(Kmer(i * i))
		for range i % 5 {
			tab.tally(Kmer(i * i))
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := tab.Get(Kmer(i * i)); !ok || v != int32(i%5) {
			t.Fatalf("Get(%d) = %d,%v want %d", i*i, v, ok, i%5)
		}
	}
	if _, ok := tab.Get(Kmer(7)); ok {
		t.Fatal("Get of absent key reported present")
	}
	if s := tab.tally(Kmer(7)); s != -1 {
		t.Fatalf("tally of absent key = slot %d, want -1", s)
	}
	if got := tab.MarkReliable(2, 3); got != 2*n/5 {
		t.Fatalf("MarkReliable = %d, want %d", got, 2*n/5)
	}
	slots := make([]int32, n)
	for j := range slots { // slot order, not key order, numbers; records are slot<<2 | parity<<1 | strand
		slots[j] = int32(tab.slot(Kmer((n-1-j)*(n-1-j))))<<2 | int32(j&3)
	}
	next := int32(100)
	for _, pass := range []string{"first", "repeat"} {
		cols := slices.Clone(slots)
		tab.number(cols, &next)
		want := int32(100)
		for i := n - 1; i >= 0; i-- {
			got := cols[n-1-i] >> 2
			if cols[n-1-i] >= 0 && cols[n-1-i]&3 != int32((n-1-i)&3) {
				t.Fatalf("%s: numbering lost the parity or strand of %d", pass, i*i)
			}
			switch {
			case i%5 != 2 && i%5 != 3:
				if got != -1 {
					t.Fatalf("%s: column of unreliable %d = %d, want -1", pass, i*i, got)
				}
			case got != want:
				t.Fatalf("%s: column of %d = %d, want %d", pass, i*i, got, want)
			default:
				want++
			}
		}
	}
	if next != 100+2*n/5 {
		t.Fatalf("next = %d after numbering, want %d", next, 100+2*n/5)
	}
	absent := []int32{tab.tally(Kmer(7))}
	if tab.number(absent, &next); absent[0] != -1 {
		t.Fatalf("column of absent key = %d, want -1", absent[0])
	}
}

// TestExtractIntoMatchesExtract pins the scratch-reusing scan to the
// allocating one across many reads through one shared scratch.
func TestExtractIntoMatchesExtract(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 3000, Seed: 51})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 4, MeanLen: 300, Seed: 52}))
	reads = append(reads, []byte("ACGTNNNACGTACGT"), []byte("AC"), nil)
	var sc ExtractScratch
	for _, k := range []int{5, 17, 31} {
		for i, seq := range reads {
			want := Extract(seq, k)
			got := sc.ExtractInto(seq, k)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d read %d: ExtractInto diverges from Extract", k, i)
			}
		}
	}
}

// TestReplyShapeMirrorsRequests pins the documented protocol decision that
// reply parts always mirror the request shape — even when every entry is -1
// because no reliable k-mer exists — and that both comm modes agree on it:
// with low above any count, the column exchange must still move the same
// bytes and messages as the sync run, and produce zero triples.
func TestReplyShapeMirrorsRequests(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 4000, Seed: 61})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 5, MeanLen: 350, Seed: 62}))
	const k = 15
	for _, p := range []int{1, 4, 9} {
		var traffic [2][2]int64
		var results [2][]ATriple
		for mode, async := range []bool{false, true} {
			w := mpi.NewWorld(p)
			err := w.Run(func(c *mpi.Comm) {
				store := fasta.FromGlobal(c, reads)
				var res *Result
				var triples []ATriple
				mpitest.InMode(c, async, func() { res, triples = CountAndBuild(store, k, 1<<30, 1<<30, 1) })
				if res.NumCols != 0 {
					panic("expected no reliable k-mers")
				}
				if len(triples) != 0 {
					panic("all-miss run produced triples")
				}
				if c.Rank() == 0 {
					results[mode] = triples
				}
			})
			if err != nil {
				t.Fatalf("P=%d async=%v: %v", p, async, err)
			}
			traffic[mode] = [2]int64{w.TotalBytes(), w.TotalMsgs()}
		}
		if traffic[0] != traffic[1] {
			t.Fatalf("P=%d: all-miss reply traffic differs: sync %v, async %v", p, traffic[0], traffic[1])
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("P=%d: all-miss triples differ across modes", p)
		}
	}
}
