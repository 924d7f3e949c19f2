package kmer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dna"
	"repro/internal/mpi"
	"repro/internal/mpi/wire"
	"repro/internal/par"
	"repro/internal/readsim"
)

// TestScanOwnersMatchOwner: the owner the scan's rolling minimizer gives each
// kept window is Owner of the window's canonical k-mer, on reads with N runs
// and lone Ns, for k below, at and above the minimizer length and P from 1 to
// 64; and Owner gives a k-mer and its reverse complement one owner.
func TestScanOwnersMatchOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, k := range []int{1, 5, 16, 17, 18, 25, 31} {
		for _, p := range []int{1, 4, 9, 64} {
			var sc ExtractScratch
			for trial := 0; trial < 20; trial++ {
				seq := randSeq(rng, rng.Intn(400))
				for range rng.Intn(4) {
					if len(seq) > 0 {
						at := rng.Intn(len(seq))
						copy(seq[at:], bytes.Repeat([]byte("N"), 1+rng.Intn(k+2)))
					}
				}
				w := windows(len(seq), k)
				kms, occ, own := make([]uint64, w), make([]Occur, w), make([]uint16, w)
				n := sc.scan(seq, k, p, kms, occ, own)
				for j := range n {
					km := Kmer(kms[j])
					if want := Owner(km, k, p); int(own[j]) != want {
						t.Fatalf("k=%d P=%d: window at %d: scan owner %d, Owner %d", k, p, occ[j].Pos(), own[j], want)
					}
					if a, b := Owner(km, k, p), Owner(RevComp(km, k), k, p); a != b {
						t.Fatalf("k=%d P=%d: k-mer %d has owner %d, its reverse complement %d", k, p, km, a, b)
					}
				}
			}
		}
	}
}

// runsOf extracts reads into one stream and routes it to p owners, as one
// rank holding every read would.
func runsOf(reads [][]byte, k, p int) (*stream, []mpi.Buf[byte]) { return runsFrom(reads, 0, k, p) }

// runsFrom is runsOf for reads whose global ids start at lo.
func runsFrom(reads [][]byte, lo, k, p int) (*stream, []mpi.Buf[byte]) {
	s := extract(par.NewPool(1, func(int) *ExtractScratch { return new(ExtractScratch) }), reads, k, p)
	return s, s.route(reads, lo, k, p)
}

// TestRunsExpandToTheStream: every owner's run part expands, record by
// record, to the canonical k-mers of the stream's windows that owner holds,
// in stream order, each at its read and window, and holds one record per
// maximal run, a run of more than maxRun windows cut into records of maxRun;
// expandRuns checks each part is exactly as long as its records.
func TestRunsExpandToTheStream(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 6000, Seed: 103})
	reads := readsim.Seqs(readsim.Simulate(g, readsim.ReadConfig{Depth: 4, MeanLen: 500, ErrorRate: 0.02, Seed: 104}))
	long := randSeq(rand.New(rand.NewSource(105)), maxRun+200) // one owner holds all of it at P = 1: cut at maxRun
	reads = append(reads, []byte("ACGTNACGTACGTTTGACCANNNNACGT"), bytes.Repeat([]byte("A"), 300), nil, long)
	const lo = 7 // the reads' first global id
	for _, k := range []int{7, 17, 31} {
		for _, p := range []int{1, 4, 16} {
			s, parts := runsFrom(reads, lo, k, p)
			want := make([][]runKmer, p)
			// Windows that open a run: a read's first, one after a gap or a
			// change of owner, and one after maxRun windows of a run.
			starts, run := 0, 0
			for i, end := range s.end {
				for j := s.start[i]; j < end; j++ {
					pos := int(s.occ[j].Pos())
					fwd := Encode(reads[i][pos:pos+k], k)
					want[s.own[j]] = append(want[s.own[j]], runKmer{min(fwd, RevComp(fwd, k)), lo + i, s.occ[j]})
					if j == s.start[i] || s.own[j] != s.own[j-1] || s.occ[j].Pos() != s.occ[j-1].Pos()+1 || run == maxRun {
						starts, run = starts+1, 0
					}
					run++
				}
			}
			records := 0
			for o, part := range parts {
				got := expandRuns(t, part.Elems(), k, lo, lo+len(reads))
				if fmt.Sprint(got) != fmt.Sprint(want[o]) {
					t.Fatalf("k=%d P=%d: owner %d's part expands to %d k-mers, want the stream's %d", k, p, o, len(got), len(want[o]))
				}
				records += len(runRecords(part.Elems(), k))
			}
			if records != starts {
				t.Fatalf("k=%d P=%d: %d records for %d maximal runs", k, p, records, starts)
			}
		}
	}
}

// runKmer is one occurrence a run part stands for: its canonical k-mer, its
// read and its window.
type runKmer struct {
	km   Kmer
	read int
	occ  Occur
}

// expandRuns decodes a run part, accepted from a sender of reads [lo, hi),
// into its occurrences, base by base, the slow way.
func expandRuns(t *testing.T, part []byte, k, lo, hi int) []runKmer {
	t.Helper()
	occ, err := checkRuns(part, k, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var out []runKmer
	read, end := lo-1, 0
	for _, rec := range runRecords(part, k) {
		if rec.dread > 0 {
			read, end = read+int(rec.dread), 0
		}
		start := end + int(rec.gap)
		for j := 0; j+k <= len(rec.seq); j++ {
			fwd := Encode(rec.seq[j:j+k], k)
			rc := RevComp(fwd, k)
			out = append(out, runKmer{min(fwd, rc), read, MakeOccur(int32(start+j), rc < fwd)})
		}
		end = start + len(rec.seq) - k + 1
	}
	if len(out) != occ {
		t.Fatalf("checkRuns counts %d k-mers, the records hold %d", occ, len(out))
	}
	return out
}

// runRecord is one record of a run part: its header deltas and the bases it
// spans.
type runRecord struct {
	dread, gap uint64
	seq        []byte
}

// runRecords returns the records of an accepted run part.
func runRecords(part []byte, k int) []runRecord {
	var recs []runRecord
	for len(part) > 0 {
		var f [3]uint64
		for i := range f {
			v, n := binary.Uvarint(part)
			f[i], part = v, part[n:]
		}
		seq := make([]byte, int(f[2])+k-1)
		for b := range seq {
			seq[b] = dna.Base(part[b/4] >> (6 - 2*(b%4)))
		}
		recs = append(recs, runRecord{f[0], f[1], seq})
		part = part[(len(seq)+3)/4:]
	}
	return recs
}

// TestRunPartRefusals: a malformed part received from another rank panics
// naming that rank — never an index out of range inside the counter — and
// so does a well-formed one naming a read outside the sender's range or a
// window past Occur's last position.
func TestRunPartRefusals(t *testing.T) {
	const k, lo, hi = 5, 10, 20
	good := appendRun(nil, 1, 4, []byte("ACGTACG"), 3) // read 10, windows 4..6
	more := func(b ...byte) []byte { return append(bytes.Clone(good), b...) }
	for name, c := range map[string]struct {
		part []byte
		want string
	}{
		"header cut short":         {more(0, 1), "ends inside its header"},
		"header not minimal":       {more(0x80, 0, 0, 1, 0xff), "not a minimal varint"},
		"header overflows":         {more(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 1, 0), "overflows 64 bits"},
		"zero-length run":          {more(0, 0, 0, 0xff), "a run of 0 k-mers"},
		"run past the end":         {more(0, 0, 9, 0xff), "the part ends at"},
		"bits after the run":       {append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]|1), "bits set after"},
		"read before the sender's": {appendRun(nil, 0, 0, []byte("ACGTACG"), 3), "outside the sender's reads [10,20)"},
		"read past the sender's":   {more(10, 0, 1, 0x1b, 0), "outside the sender's reads [10,20)"},
		"window past Occur's limit": {appendRun(nil, 1, maxPos-1, []byte("ACGTACG"), 3),
			"passes Occur's last position"},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "from rank 3") || !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one naming rank 3 and %q", name, msg, c.want)
				}
			}()
			runOccurrences(c.part, k, 3, lo, hi)
		}()
	}
	if n := runOccurrences(good, k, 3, lo, hi); n != 3 {
		t.Fatalf("well-formed part counts %d k-mers, want 3", n)
	}
	// The last window Occur holds, and the last read of the range, pass.
	edge := appendRun(nil, hi-lo, maxPos-2, []byte("ACGTACG"), 3)
	if n := runOccurrences(edge, k, 3, lo, hi); n != 3 {
		t.Fatalf("a run ending at Occur's last window counts %d k-mers, want 3", n)
	}
}

// TestRoutedPartIsNoKmerFrame: a run part's wire fingerprint is not that of
// the k-mer words CountAndBuild once routed, so a rank that expects those
// refuses the frame instead of counting its bytes as k-mers.
func TestRoutedPartIsNoKmerFrame(t *testing.T) {
	if _, parts := runsOf(nil, 31, 1); fingerprint(parts) == wire.Fingerprint[uint64]() {
		t.Fatal("run parts travel with uint64's wire fingerprint")
	}
}

func fingerprint[T any]([]mpi.Buf[T]) uint32 { return wire.Fingerprint[T]() }

// TestOwnerLoad bounds how evenly canonical minimizers spread the k-mer
// occurrences of the 30 kb C. elegans-like reads (k = 31, the preset's)
// over owners: the most loaded owner's occurrences over the mean stay within
// bounds fixed before measuring, 1.10 at P = 4, 1.25 at P = 16 and 1.60 at
// P = 64. It logs the run parts' bytes per occurrence at each P.
func TestOwnerLoad(t *testing.T) {
	reads := readsim.Seqs(readsim.Generate(readsim.CElegansLike, 30000, 1).Reads)
	const k = 31
	for _, c := range []struct {
		p     int
		bound float64
	}{{4, 1.10}, {16, 1.25}, {64, 1.60}} {
		_, parts := runsOf(reads, k, c.p)
		var total, most, size int
		for _, part := range parts {
			occ, err := checkRuns(part.Elems(), k, 0, len(reads))
			if err != nil {
				t.Fatal(err)
			}
			total, most, size = total+occ, max(most, occ), size+len(part.Elems())
		}
		load := float64(most) * float64(c.p) / float64(total)
		t.Logf("P=%d: %d occurrences, owner max/mean %.3f (bound %.2f), %.3f bytes per occurrence", c.p, total, load, c.bound, float64(size)/float64(total))
		if load > c.bound {
			t.Errorf("P=%d: owner max/mean load %.3f, bound %.2f", c.p, load, c.bound)
		}
	}
}

// FuzzDecodeRuns feeds arbitrary bytes to the owner's side of a run part
// from a sender of reads [3, 9): checkRuns never panics, and a part it
// accepts is walked by the counter in both phases without a fault, holds
// exactly the k-mers it counts, each recorded with its read's parity and its
// strand, and
// re-encodes record by record to the same bytes.
func FuzzDecodeRuns(f *testing.F) {
	const lo, hi = 3, 9
	for _, k := range []int{5, 31} {
		_, parts := runsFrom([][]byte{[]byte("ACGTTGCAACGGTACCATGACNACGTTAGCATGCAGTCAGGCTAGCAATTGGCATGCAACGT")}, lo, k, 4)
		for _, part := range parts {
			f.Add(part.Elems(), uint8(k))
		}
	}
	f.Add([]byte{1, 0, 0}, uint8(3))
	f.Add([]byte{1, 0, 1, 0xff}, uint8(4))
	f.Add([]byte{1, 2, 2, 0xe4, 0x01, 5, 0, 1, 0xe4, 0x00}, uint8(4))
	f.Fuzz(func(t *testing.T, part []byte, kk uint8) {
		k := 1 + int(kk)%MaxK
		occ, err := checkRuns(part, k, lo, hi)
		if err != nil {
			return
		}
		c := newCounter(k, 2, occ)
		c.observe(part)
		recs := make([]int32, occ)
		c.tally(part, lo, recs)
		want := expandRuns(t, part, k, lo, hi)
		for j, w := range want {
			if r := recs[j]; r >= 0 && (c.table.entries[r>>2].km != w.km || r&1 == 1 != w.occ.RC() || int(r>>1&1) != w.read&1) {
				t.Fatalf("occurrence %d of read %d tallied as %#x, at a slot holding %d; want %d on the %v strand", j, w.read, r, c.table.entries[r>>2].km, w.km, w.occ.RC())
			}
		}
		var again []byte
		for _, rec := range runRecords(part, k) {
			again = appendRun(again, rec.dread, rec.gap, rec.seq, len(rec.seq)-k+1)
		}
		if !bytes.Equal(again, part) {
			t.Fatalf("accepted part re-encodes to other bytes:\n%x\n%x", again, part)
		}
	})
}
