package kmer

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dna"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/readsim"
	"repro/internal/spmat"
)

// gatherCountAndBuild runs CountAndBuild on reads at p ranks, each rank in
// blocking or nonblocking mode, and returns every rank's triples in rank
// order and the column count.
func gatherCountAndBuild(reads [][]byte, k int, low, high int32, p, threads int, async bool) ([]ATriple, int, error) {
	var triples []ATriple
	var numCols int
	err := mpi.Run(p, func(c *mpi.Comm) {
		store := fasta.FromGlobal(c, reads)
		var res *Result
		var mine []ATriple
		mpitest.InMode(c, async, func() { res, mine = CountAndBuild(store, k, low, high, threads) })
		all, _ := mpi.AllgathervFlat(c, mine)
		if c.Rank() == 0 {
			triples, numCols = all, res.NumCols
		}
	})
	return triples, numCols, err
}

// checkFirstAppearance holds CountAndBuild to the serial first-appearance
// reference on every P, thread count and request mode given: the same column
// count and, triple for triple, the same A in stream order — read order, then
// extraction order — which pins the canonical blocks spmat.FromRows sorts it
// into as well.
func checkFirstAppearance(t *testing.T, reads [][]byte, k int, low, high int32, ps, threads []int, modes []bool) {
	t.Helper()
	for _, p := range ps {
		cols := firstAppearanceColumns(reads, k, low, high, p)
		want := firstAppearanceTriples(reads, k, cols)
		for _, th := range threads {
			for _, async := range modes {
				got, numCols, err := gatherCountAndBuild(reads, k, low, high, p, th, async)
				if err != nil {
					t.Fatalf("P=%d threads=%d async=%v: %v", p, th, async, err)
				}
				if numCols != len(cols) {
					t.Fatalf("P=%d threads=%d async=%v: %d columns, want %d", p, th, async, numCols, len(cols))
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("P=%d threads=%d async=%v: %d triples differ from the first-appearance reference (%d)", p, th, async, len(got), len(want))
				}
			}
		}
	}
}

// TestColumnIDsOnFlatStreamEdges runs the first-appearance reference on reads
// whose spans of the flat occurrence stream are not what their window counts
// promise: empty reads, reads shorter than k (no span), all-N reads (a span
// with nothing in it) and N runs mid-read (a span with unused slack), beside
// copies of the same reads so their k-mers are reliable.
func TestColumnIDsOnFlatStreamEdges(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 3000, Seed: 83})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 5, MeanLen: 300, ErrorRate: 0.01, Seed: 84}))
	const k = 15
	var edged [][]byte
	for i, seq := range reads {
		seq = bytes.Clone(seq)
		switch i % 6 {
		case 0:
			edged = append(edged, nil, []byte{})
		case 1:
			edged = append(edged, seq[:min(len(seq), k-1)])
		case 2:
			edged = append(edged, bytes.Repeat([]byte("N"), len(seq)))
		case 3: // an N run in the middle, and a lone N near the end
			copy(seq[len(seq)/3:], "NNNNNNNNNNNNNNNNNNNN")
			seq[len(seq)-k/2] = 'N'
		case 4: // a lowercase N right after the first window
			if len(seq) > k {
				seq[k] = 'n'
			}
		}
		edged = append(edged, seq)
	}
	checkFirstAppearance(t, edged, k, 2, 40, []int{1, 4, 9}, []int{1, 3}, []bool{false, true})
}

// TestCountTableGrowsFromFloor counts error-heavy occurrence parts through a
// counter that starts its table at the floor, with the Bloom filter (low = 2)
// and without it (low = 1): the table must double many times, hold exactly
// CountSerial's counts for what it admits (every k-mer when low < 2, every
// k-mer seen twice with the filter), and see no insertion after the tally —
// its arrays and size stay as the tally left them through MarkReliable and
// number, and every recorded slot still holds its occurrence's k-mer.
func TestCountTableGrowsFromFloor(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 40000, Seed: 91})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 6, MeanLen: 800, ErrorRate: 0.03, Seed: 92}))
	const k, p = 17, 4
	serial := CountSerial(reads, k)
	parts := make([][]uint64, p)
	var occ int
	var sc ExtractScratch
	for _, seq := range reads {
		for _, kp := range sc.ExtractInto(seq, k) {
			o := Owner(kp.Kmer, k, p)
			parts[o] = append(parts[o], uint64(kp.Kmer))
			occ++
		}
	}
	runs := wordRuns(parts, k)
	for _, low := range []int32{1, 2} {
		c := newCounter(k, low, occ)
		if len(c.table.entries) != tableFloor {
			t.Fatalf("low=%d: table starts at %d slots, want the floor %d", low, len(c.table.entries), tableFloor)
		}
		for _, part := range runs {
			c.observe(part)
		}
		if len(c.table.entries) < tableFloor<<5 {
			t.Fatalf("low=%d: table grew to %d slots, want at least five doublings", low, len(c.table.entries))
		}
		slots := make([][]int32, p)
		for r, part := range parts {
			slots[r] = make([]int32, len(part))
			c.tally(runs[r], 0, slots[r])
		}
		tab := c.table
		size, n, ents := len(tab.entries), tab.n, &tab.entries[0]
		for km, want := range serial {
			got, ok := tab.Get(km)
			if (low < 2 || want >= 2) && !ok {
				t.Fatalf("low=%d: k-mer %d (count %d) not admitted", low, km, want)
			}
			if ok && got != want {
				t.Fatalf("low=%d: k-mer %d count %d, want %d", low, km, got, want)
			}
		}
		if low < 2 && tab.Len() != len(serial) {
			t.Fatalf("low=%d: table holds %d k-mers, want all %d", low, tab.Len(), len(serial))
		}
		const high = 4
		nRel := tab.MarkReliable(low, high)
		next := int32(0)
		for r := range slots {
			tab.number(slots[r], &next)
		}
		if int(next) != nRel {
			t.Fatalf("low=%d: numbered %d columns, want %d", low, next, nRel)
		}
		if len(tab.entries) != size || tab.n != n || &tab.entries[0] != ents {
			t.Fatalf("low=%d: the table changed after the tally (%d slots, %d k-mers; was %d, %d)", low, len(tab.entries), tab.n, size, n)
		}
		// The ids follow first appearance in part order, and every recorded
		// slot still holds its k-mer. Each word is canonical on its forward
		// strand, of read 0, so a record is its column id shifted two up.
		ids := map[Kmer]int32{}
		for r, part := range parts {
			for i, w := range part {
				km, col := Kmer(w), slots[r][i]>>2
				if cnt := serial[km]; cnt < low || cnt > high {
					if col != -1 {
						t.Fatalf("low=%d: unreliable k-mer %d (count %d) got column %d", low, km, cnt, col)
					}
					continue
				}
				want, seen := ids[km]
				if !seen {
					want = int32(len(ids))
					ids[km] = want
				}
				if col != want {
					t.Fatalf("low=%d: k-mer %d got column %d, want %d", low, km, col, want)
				}
				if e := tab.entries[tab.slot(km)]; e.km != km || e.val != col || slots[r][i]&3 != 0 {
					t.Fatalf("low=%d: k-mer %d's slot no longer holds it", low, km)
				}
			}
		}
	}
}

// fuzzReads decodes a read set from recipe, four bytes a read (at most 32
// reads), over a random genome drawn from seed: bytes 0–1 pick a start, byte 2
// a length of 0–3000 bases, and byte 3 flags — bit 0 repeats the previous
// read, bit 1 reverse-complements, bit 2 writes an N run of 1–16 bases in the
// middle, bit 3 makes the whole read N, bit 4 substitutes one base (a
// singleton k-mer).
func fuzzReads(seed int64, recipe []byte) [][]byte {
	g := randSeq(rand.New(rand.NewSource(seed)), 4000)
	var reads [][]byte
	for len(recipe) >= 4 && len(reads) < 32 {
		b := recipe[:4]
		recipe = recipe[4:]
		if b[3]&1 != 0 && len(reads) > 0 {
			reads = append(reads, reads[len(reads)-1])
			continue
		}
		start := (int(b[0])<<8 | int(b[1])) % len(g)
		n := int(b[2]) * 3000 / 255
		seq := make([]byte, n)
		for i := range seq {
			seq[i] = g[(start+i)%len(g)]
		}
		if b[3]&2 != 0 {
			seq = dna.RevComp(seq)
		}
		if b[3]&4 != 0 && n > 0 {
			for i := n / 2; i < min(n, n/2+1+int(b[3]>>4)); i++ {
				seq[i] = 'N'
			}
		}
		if b[3]&8 != 0 {
			seq = bytes.Repeat([]byte("N"), n)
		}
		if b[3]&16 != 0 && n > 0 {
			seq[int(b[1])%n] = "ACGT"[(dna.Code(seq[int(b[1])%n])+1)&3]
		}
		reads = append(reads, seq)
	}
	return reads
}

// FuzzCountAndBuild holds the distributed counter to the serial
// first-appearance reference on fuzzed read sets (duplicates, N runs, all-N
// and empty reads, 0–3 kb) and fuzzed k, low and high, at P ∈ {1, 4} with one
// and three extraction workers.
func FuzzCountAndBuild(f *testing.F) {
	f.Add(int64(1), []byte("\x00\x10\xff\x00\x00\x40\xff\x01\x00\x80\xc0\x04\x02\x00\x90\x12\x00\x00\x00\x00\x03\x00\x20\x08"), uint8(15), uint8(2), uint8(40))
	f.Add(int64(2), []byte("\x00\x00\x50\x00\x00\x30\x50\x00\x00\x00\x50\x02\x00\x30\x50\x15"), uint8(5), uint8(1), uint8(255))
	f.Add(int64(3), []byte("\x01\x00\x05\x00\x01\x00\x05\x01\x0f\x00\xff\x24"), uint8(31), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, recipe []byte, k, low, high uint8) {
		reads := fuzzReads(seed, recipe)
		kk := 1 + int(k)%MaxK
		lo, hi := int32(low%6), int32(high)
		checkFirstAppearance(t, reads, kk, lo, hi, []int{1, 4}, []int{1, 3}, []bool{false})
	})
}

// TestColumnsAreTheRowTriplesTransposed gates the owners' columns of A
// against the reply path they replaced: at P ∈ {1, 4, 9, 16}, in blocking
// and nonblocking mode, every rank's Cols are column-major inside its own
// column range and laid out as spmat.ColumnsFromTriples lays them out, the
// ranges tile [0, NumCols) in rank order, Count's columns are
// CountAndBuild's, and the gathered columns are CountAndBuild's gathered
// row triples transposed — the same (read, column, Occur) set, strand
// included. At the even k the input holds a palindromic k-mer, whose strand
// bit the scan leaves clear and the owner's roll must too.
func TestColumnsAreTheRowTriplesTransposed(t *testing.T) {
	const pal = "ACGTACGTACGT" // its own reverse complement at k = 12
	g := readsim.Genome(readsim.GenomeConfig{Length: 3000, Seed: 111})
	copy(g[900:], pal)
	copy(g[2100:], pal)
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 6, MeanLen: 400, ErrorRate: 0.01, Seed: 112}))
	if pk := Encode([]byte(pal), 12); RevComp(pk, 12) != pk {
		t.Fatal("the palindrome is not its own reverse complement")
	}
	for _, k := range []int{12, 17} {
		for _, p := range []int{1, 4, 9, 16} {
			for _, async := range []bool{false, true} {
				var rows, cols []ATriple
				err := mpi.Run(p, func(c *mpi.Comm) {
					store := fasta.FromGlobal(c, reads)
					var res, prod *Result
					var rowTriples []ATriple
					mpitest.InMode(c, async, func() {
						res, rowTriples = CountAndBuild(store, k, 2, 1000, 2)
						prod = Count(store, k, 2, 1000, 1)
					})
					mine := res.Cols.Triples()
					if err := spmat.CheckColMajor(mine, 0, int32(store.N), res.Cols.Lo, res.Cols.Hi); err != nil {
						panic(fmt.Sprintf("rank %d: columns: %v", c.Rank(), err))
					}
					if !reflect.DeepEqual(spmat.ColumnsFromTriples(res.Cols.Lo, res.Cols.Hi, mine), res.Cols) {
						panic(fmt.Sprintf("rank %d: the columns are not their triples' split layout", c.Rank()))
					}
					if !reflect.DeepEqual(prod.Cols, res.Cols) {
						panic(fmt.Sprintf("rank %d: Count's columns differ from CountAndBuild's", c.Rank()))
					}
					ranges := mpi.Allgather(c, [2]int32{res.Cols.Lo, res.Cols.Hi})
					next := int32(0)
					for _, rg := range ranges {
						if rg[0] != next || rg[1] < rg[0] {
							break
						}
						next = rg[1]
					}
					if int(next) != res.NumCols {
						panic(fmt.Sprintf("column ranges %v do not tile [0,%d)", ranges, res.NumCols))
					}
					allRows, _ := mpi.AllgathervFlat(c, rowTriples)
					allCols, _ := mpi.AllgathervFlat(c, mine)
					if c.Rank() == 0 {
						rows, cols = allRows, allCols
					}
				})
				if err != nil {
					t.Fatalf("k=%d P=%d async=%v: %v", k, p, async, err)
				}
				slices.SortFunc(rows, func(a, b ATriple) int { return cmp.Or(cmp.Compare(a.Col, b.Col), cmp.Compare(a.Row, b.Row)) })
				if len(cols) < 1000 || !reflect.DeepEqual(cols, rows) {
					t.Fatalf("k=%d P=%d async=%v: %d column entries are not the %d row triples transposed", k, p, async, len(cols), len(rows))
				}
				if k == 12 {
					found := false
					for _, tr := range cols {
						pos := int(tr.Val.Pos())
						if string(reads[tr.Row][pos:pos+k]) == pal {
							if tr.Val.RC() {
								t.Fatalf("P=%d: the palindrome's occurrence in read %d carries the reverse strand", p, tr.Row)
							}
							found = true
						}
					}
					if !found {
						t.Fatalf("P=%d: the palindromic k-mer is no column of A", p)
					}
				}
			}
		}
	}
}
