package kmer

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dna"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/readsim"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = dna.Bases[rng.Intn(4)]
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, kk uint8) bool {
		k := int(kk%MaxK) + 1
		rng := rand.New(rand.NewSource(seed))
		s := randSeq(rng, k)
		return bytes.Equal(Decode(Encode(s, k), k), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeOrderIsLexicographic(t *testing.T) {
	f := func(seed int64, kk uint8) bool {
		k := int(kk%MaxK) + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := randSeq(rng, k), randSeq(rng, k)
		return (Encode(a, k) < Encode(b, k)) == (bytes.Compare(a, b) < 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRevCompMatchesASCII(t *testing.T) {
	f := func(seed int64, kk uint8) bool {
		k := int(kk%MaxK) + 1
		rng := rand.New(rand.NewSource(seed))
		s := randSeq(rng, k)
		return RevComp(Encode(s, k), k) == Encode(dna.RevComp(s), k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRevCompInvolution(t *testing.T) {
	f := func(km uint64, kk uint8) bool {
		k := int(kk%MaxK) + 1
		mask := Kmer(1)<<(2*uint(k)) - 1
		v := Kmer(km) & mask
		return RevComp(RevComp(v, k), k) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtractMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(12) + 3
		s := randSeq(rng, rng.Intn(120)+k)
		got := Extract(s, k)
		// Naive reference.
		type ref struct {
			km  Kmer
			pos int32
			rc  bool
		}
		var want []ref
		seen := map[Kmer]bool{}
		for i := 0; i+k <= len(s); i++ {
			fwd := Encode(s[i:i+k], k)
			rc := RevComp(fwd, k)
			canon, isRC := fwd, false
			if rc < fwd {
				canon, isRC = rc, true
			}
			if seen[canon] {
				continue
			}
			seen[canon] = true
			want = append(want, ref{canon, int32(i), isRC})
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Kmer != want[i].km || got[i].Pos != want[i].pos || got[i].RC != want[i].rc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractCanonicalStrandSymmetry(t *testing.T) {
	// A read and its reverse complement must yield the same canonical k-mer
	// set — the property that makes overlap detection strand-blind.
	rng := rand.New(rand.NewSource(4))
	s := randSeq(rng, 200)
	k := 15
	a := Extract(s, k)
	b := Extract(dna.RevComp(s), k)
	setA := map[Kmer]bool{}
	for _, kp := range a {
		setA[kp.Kmer] = true
	}
	setB := map[Kmer]bool{}
	for _, kp := range b {
		setB[kp.Kmer] = true
	}
	if !reflect.DeepEqual(setA, setB) {
		t.Fatal("canonical k-mer sets differ between strands")
	}
}

func TestExtractSkipsShortAndInvalid(t *testing.T) {
	if got := Extract([]byte("ACG"), 5); got != nil {
		t.Fatal("short read must have no k-mers")
	}
	// An N resets the window: ACGTNACGT with k=4 has windows ACGT (pos 0)
	// and ACGT (pos 5) — deduped to one occurrence.
	got := Extract([]byte("ACGTNACGT"), 4)
	if len(got) != 1 || got[0].Pos != 0 {
		t.Fatalf("invalid-base handling wrong: %+v", got)
	}
}

func TestSelectReliableBounds(t *testing.T) {
	counts := map[Kmer]int32{1: 1, 2: 2, 3: 5, 4: 9, 5: 2}
	got := SelectReliable(counts, 2, 5)
	want := []Kmer{2, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestCountSerialSimple(t *testing.T) {
	reads := [][]byte{[]byte("ACGTAC"), []byte("ACGTTT"), dna.RevComp([]byte("ACGTAC"))}
	counts := CountSerial(reads, 4)
	acgt := Encode([]byte("ACGT"), 4)
	rc := RevComp(acgt, 4)
	canon := acgt
	if rc < acgt {
		canon = rc
	}
	if counts[canon] != 3 {
		t.Fatalf("ACGT canonical count = %d, want 3", counts[canon])
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 8000, Seed: 21})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 8, MeanLen: 600, Seed: 22}))
	k, low, high := 15, int32(2), int32(60)

	// Serial reference.
	counts := CountSerial(reads, k)
	reliable := SelectReliable(counts, low, high)
	nRef := len(reliable)

	type key struct {
		row int32
		pos int32
		rc  bool
	}
	for _, p := range []int{1, 4, 9} {
		var got []ATriple
		err := mpi.Run(p, func(c *mpi.Comm) {
			store := fasta.FromGlobal(c, reads)
			res, triples := CountAndBuild(store, k, low, high, 1)
			if res.NumCols != nRef {
				panic("reliable column count differs from serial")
			}
			all, _ := mpi.AllgathervFlat(c, triples)
			if c.Rank() == 0 {
				got = all
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		// Reference triples: every (read, reliable kmer) occurrence.
		colOf := map[Kmer]int32{}
		for i, km := range reliable {
			colOf[km] = int32(i)
		}
		var wantKeys []key
		for r, seq := range reads {
			for _, kp := range Extract(seq, k) {
				if _, ok := colOf[kp.Kmer]; ok {
					wantKeys = append(wantKeys, key{int32(r), kp.Pos, kp.RC})
				}
			}
		}
		if len(got) != len(wantKeys) {
			t.Fatalf("P=%d: %d triples, want %d", p, len(got), len(wantKeys))
		}
		gotKeys := make([]key, len(got))
		for i, tr := range got {
			gotKeys[i] = key{tr.Row, tr.Val.Pos(), tr.Val.RC()}
		}
		less := func(a, b key) bool {
			if a.row != b.row {
				return a.row < b.row
			}
			if a.pos != b.pos {
				return a.pos < b.pos
			}
			return !a.rc && b.rc
		}
		sort.Slice(gotKeys, func(i, j int) bool { return less(gotKeys[i], gotKeys[j]) })
		sort.Slice(wantKeys, func(i, j int) bool { return less(wantKeys[i], wantKeys[j]) })
		if !reflect.DeepEqual(gotKeys, wantKeys) {
			t.Fatalf("P=%d: triple sets differ", p)
		}
	}
}

func TestDistributedColumnIdsConsistent(t *testing.T) {
	// The same k-mer must get the same column id no matter which rank asks:
	// check that (kmer → col) is a function by grouping triples of identical
	// (pos-independent) k-mers. We reconstruct k-mers from reads.
	g := readsim.Genome(readsim.GenomeConfig{Length: 4000, Seed: 31})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 6, MeanLen: 400, Seed: 32}))
	k := 13
	err := mpi.Run(4, func(c *mpi.Comm) {
		store := fasta.FromGlobal(c, reads)
		_, triples := CountAndBuild(store, k, 2, 1000, 2)
		type pair struct {
			km  uint64
			col int32
		}
		var local []pair
		for _, tr := range triples {
			local = append(local, pair{uint64(tripleKmer(store.Get(int(tr.Row)), tr, k)), tr.Col})
		}
		all, _ := mpi.AllgathervFlat(c, local)
		colOf := map[uint64]int32{}
		for _, pr := range all {
			if prev, ok := colOf[pr.km]; ok && prev != pr.col {
				panic("same k-mer mapped to different columns")
			}
			colOf[pr.km] = pr.col
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tripleKmer returns the canonical k-mer a triple of read seq stands for.
func tripleKmer(seq []byte, tr ATriple, k int) Kmer {
	fwd := Encode(seq[tr.Val.Pos():int(tr.Val.Pos())+k], k)
	return min(fwd, RevComp(fwd, k))
}

// TestColumnIDsFollowFirstOccurrence pins the column numbering to its
// reference: owner o's reliable k-mers take the ids [offset_o, offset_o+n_o),
// offset_o the count of reliable k-mers on owners below o, in order of first
// appearance along the reads — global read order, then extraction order. The
// numbering, and with it every triple, is the same on every P for thread
// counts 1 and 3, on blocking and nonblocking ranks, and at P 4 and 9 with
// mpi.MaxMessageBytes at 64 bytes, where every part of both exchanges needs
// several chunks.
func TestColumnIDsFollowFirstOccurrence(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 5000, Seed: 81})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 7, MeanLen: 450, ErrorRate: 0.01, Seed: 82}))
	k, low, high := 15, int32(2), int32(40)
	nReliable := len(SelectReliable(CountSerial(reads, k), low, high))
	defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
	unlimited := mpi.MaxMessageBytes
	for _, p := range []int{1, 4, 9} {
		// The reference numbering: owner ranges first, then first appearance.
		want := firstAppearanceColumns(reads, k, low, high, p)
		var first []ATriple
		for _, limit := range []int64{unlimited, 64} {
			if limit < unlimited && p == 1 {
				continue // one rank sends nothing
			}
			mpi.MaxMessageBytes = limit
			for _, threads := range []int{1, 3} {
				for _, async := range []bool{false, true} {
					perRank := make([][]ATriple, p)
					err := mpi.Run(p, func(c *mpi.Comm) {
						store := fasta.FromGlobal(c, reads)
						var res *Result
						var triples []ATriple
						mpitest.InMode(c, async, func() { res, triples = CountAndBuild(store, k, low, high, threads) })
						if res.NumCols != nReliable {
							panic(fmt.Sprintf("%d columns, want %d", res.NumCols, nReliable))
						}
						for _, tr := range triples {
							if km := tripleKmer(store.Get(int(tr.Row)), tr, k); tr.Col != want[km] {
								panic(fmt.Sprintf("read %d k-mer %d has column %d, want %d", tr.Row, km, tr.Col, want[km]))
							}
						}
						perRank[c.Rank()] = triples
					})
					if err != nil {
						t.Fatalf("P=%d limit=%d threads=%d async=%v: %v", p, limit, threads, async, err)
					}
					if triples := slices.Concat(perRank...); first == nil {
						first = triples
					} else if !reflect.DeepEqual(triples, first) {
						t.Fatalf("P=%d limit=%d threads=%d async=%v: triples differ from the unlimited threads=1 blocking run", p, limit, threads, async)
					}
				}
			}
		}
	}
}

func TestCountAndBuildAsyncMatchesSync(t *testing.T) {
	// The exchange schedule (receives posted before the extraction scan,
	// parts counted as they arrive) must produce identical results and
	// identical traffic on nonblocking and on blocking ranks, on every P.
	g := readsim.Genome(readsim.GenomeConfig{Length: 5000, Seed: 71})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 6, MeanLen: 450, Seed: 72}))
	k := 15
	for _, p := range []int{1, 4, 9} {
		results := make([]*Result, 2)
		triples := make([][]ATriple, 2)
		traffic := make([][2]int64, 2)
		for mode, async := range []bool{false, true} {
			w := mpi.NewWorld(p)
			err := w.Run(func(c *mpi.Comm) {
				store := fasta.FromGlobal(c, reads)
				var res *Result
				var ts []ATriple
				mpitest.InMode(c, async, func() { res, ts = CountAndBuild(store, k, 2, 1000, 2) })
				if c.Rank() == 0 {
					results[mode], triples[mode] = res, ts
				}
			})
			if err != nil {
				t.Fatalf("P=%d async=%v: %v", p, async, err)
			}
			traffic[mode] = [2]int64{w.TotalBytes(), w.TotalMsgs()}
		}
		if results[0].NumCols != results[1].NumCols {
			t.Fatalf("P=%d: column counts differ: %d vs %d", p, results[0].NumCols, results[1].NumCols)
		}
		if !reflect.DeepEqual(triples[0], triples[1]) {
			t.Fatalf("P=%d: triples differ between sync and async", p)
		}
		if traffic[0] != traffic[1] {
			t.Fatalf("P=%d: traffic differs: sync %v, async %v", p, traffic[0], traffic[1])
		}
	}
}
