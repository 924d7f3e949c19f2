package fasta

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dna"
	"repro/internal/grid"
	"repro/internal/mpi"
)

func TestReadBasic(t *testing.T) {
	in := ">r1 some description\nACGT\nACGT\n>r2\n\nTTTT\n"
	recs, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].ID != "r1" || string(recs[0].Seq) != "ACGTACGT" {
		t.Fatalf("rec0: %+v", recs[0])
	}
	if recs[1].ID != "r2" || string(recs[1].Seq) != "TTTT" {
		t.Fatalf("rec1: %+v", recs[1])
	}
}

func TestReadNoTrailingNewlineAndCRLF(t *testing.T) {
	recs, err := Read(strings.NewReader(">a\r\nACG\r\nT"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Seq) != "ACGT" {
		t.Fatalf("%+v", recs)
	}
}

func TestReadRejectsLeadingSequence(t *testing.T) {
	if _, err := Read(strings.NewReader("ACGT\n>a\nACGT\n")); err == nil {
		t.Fatal("expected error for sequence before header")
	}
}

// TestReadRejectsNonLetters: a sequence line holds letters only. A '>' inside
// one used to be kept, and Write at width 7 then wrapped ACGTACG>TTT so the
// '>' started a line and read back as a second record; now the input is an
// error naming the line and the byte.
func TestReadRejectsNonLetters(t *testing.T) {
	for in, want := range map[string]string{
		">x\nACGTACG>TTT\n":  `line 2: byte ">" at column 8`,
		">x\nACGT\nAC GT\n":  `line 3: byte " " at column 3`,
		">x\r\nAC-GT\r\n":    `line 2: byte "-" at column 3`,
		">x\nACGT*\n":        `line 2: byte "*" at column 5`,
		">x\n\nAC\x00\n":     `line 3: byte "\x00" at column 3`,
		">x\nACG\xc3\x84T\n": `line 2: byte "\xc3" at column 4`,
	} {
		_, err := Read(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Read(%q) = %v, want an error naming %q", in, err, want)
		}
	}
}

// TestReadIDIsFirstWord: the ID ends at the first whitespace of any kind, so
// the header Write emits for it reads back as the same ID.
func TestReadIDIsFirstWord(t *testing.T) {
	for in, want := range map[string]string{">a b\nA\n": "a", ">\t a\tb\nA\n": "a", ">a\vb\nA\n": "a", ">a\rb\nA\n": "a", ">\nA\n": ""} {
		recs, err := Read(strings.NewReader(in))
		if err != nil || len(recs) != 1 || recs[0].ID != want {
			t.Errorf("Read(%q) = %q, %v; want ID %q", in, recs, err, want)
		}
	}
}

// FuzzRead holds Read to three properties on any input: it never panics; an
// accepted input round-trips through Write at widths 0 and 7 to the same IDs
// and sequences; and neither lower-casing every sequence letter nor
// re-wrapping the sequence lines changes the parse, or whether it succeeds.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := Read(bytes.NewReader(in))
		for name, variant := range map[string][]byte{
			"lower-cased": mapSeqLines(in, func(line []byte) []byte {
				out := bytes.Clone(line)
				for i, b := range out {
					if 'A' <= b && b <= 'Z' {
						out[i] = b + 'a' - 'A'
					}
				}
				return out
			}),
			"unwrapped":    rewrap(in, 0),
			"wrapped at 3": rewrap(in, 3),
		} {
			if name != "lower-cased" && err != nil {
				continue // re-wrapping can move a rejected byte to a line start
			}
			got, verr := Read(bytes.NewReader(variant))
			if (err == nil) != (verr == nil) {
				t.Fatalf("%s: input error %v, variant error %v", name, err, verr)
			}
			sameRecords(t, name, recs, got)
		}
		if err != nil {
			return
		}
		for _, width := range []int{0, 7} {
			var buf bytes.Buffer
			if err := Write(&buf, recs, width); err != nil {
				t.Fatal(err)
			}
			back, err := Read(&buf)
			if err != nil {
				t.Fatalf("width %d: written records do not read back: %v", width, err)
			}
			sameRecords(t, fmt.Sprintf("written at width %d", width), recs, back)
		}
	})
}

// mapSeqLines applies fn to every line of in that is not a header.
func mapSeqLines(in []byte, fn func([]byte) []byte) []byte {
	lines := bytes.Split(in, []byte("\n"))
	for i, line := range lines {
		if len(line) == 0 || line[0] != '>' {
			lines[i] = fn(line)
		}
	}
	return bytes.Join(lines, []byte("\n"))
}

// rewrap rebuilds in with each record's sequence lines joined and cut every
// width bytes (0: one line per record); blank lines go.
func rewrap(in []byte, width int) []byte {
	var out, seq []byte
	flush := func() {
		for len(seq) > 0 {
			n := len(seq)
			if width > 0 {
				n = min(n, width)
			}
			out = append(append(out, seq[:n]...), '\n')
			seq = seq[n:]
		}
	}
	for _, line := range bytes.Split(in, []byte("\n")) {
		line = bytes.TrimRight(line, "\r")
		if len(line) > 0 && line[0] == '>' {
			flush()
			out = append(append(out, line...), '\n')
		} else {
			seq = append(seq, line...)
		}
	}
	flush()
	return out
}

func sameRecords(t *testing.T, label string, want, got []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || !bytes.Equal(got[i].Seq, want[i].Seq) {
			t.Fatalf("%s: record %d = %q %q, want %q %q", label, i, got[i].ID, got[i].Seq, want[i].ID, want[i].Seq)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{0, 1, 7, 80} {
		var recs []Record
		for i := 0; i < 20; i++ {
			seq := make([]byte, rng.Intn(300))
			for j := range seq {
				seq[j] = dna.Bases[rng.Intn(4)]
			}
			recs = append(recs, Record{ID: fmt.Sprintf("read_%d", i), Seq: seq})
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs, width); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(recs) {
			t.Fatalf("width %d: %d != %d records", width, len(back), len(recs))
		}
		for i := range recs {
			if back[i].ID != recs[i].ID || !bytes.Equal(back[i].Seq, recs[i].Seq) {
				t.Fatalf("width %d: record %d mismatch", width, i)
			}
		}
	}
}

func makeReads(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	reads := make([][]byte, n)
	for i := range reads {
		s := make([]byte, 10+rng.Intn(50))
		for j := range s {
			s[j] = dna.Bases[rng.Intn(4)]
		}
		reads[i] = s
	}
	return reads
}

func TestDistStoreFromGlobal(t *testing.T) {
	for _, p := range []int{1, 3, 4, 7} {
		reads := makeReads(23, 5)
		err := mpi.Run(p, func(c *mpi.Comm) {
			st := FromGlobal(c, reads)
			if st.N != 23 {
				panic("N wrong")
			}
			total := mpi.Allreduce(c, st.Hi-st.Lo, func(a, b int) int { return a + b })
			if total != 23 {
				panic("blocks do not cover")
			}
			for g := st.Lo; g < st.Hi; g++ {
				if !bytes.Equal(st.Get(g), reads[g]) {
					panic("local read wrong")
				}
			}
			for g := 0; g < st.N; g++ {
				if st.Len(g) != len(reads[g]) {
					panic("replicated length wrong")
				}
				if st.Owner(g) < 0 || st.Owner(g) >= p {
					panic("owner out of range")
				}
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

func TestRowColSequences(t *testing.T) {
	for _, p := range []int{1, 4, 9, 16} {
		reads := makeReads(37, 13)
		err := mpi.Run(p, func(c *mpi.Comm) {
			g := grid.New(c)
			st := FromGlobal(c, reads)
			rowSeqs, colSeqs := st.RowColSequences(g)
			rlo, rhi := g.MyRowRange(st.N)
			if len(rowSeqs) != rhi-rlo {
				panic("row span wrong")
			}
			for i, seq := range rowSeqs {
				if !bytes.Equal(seq, reads[rlo+i]) {
					panic(fmt.Sprintf("row read %d wrong", rlo+i))
				}
			}
			clo, chi := g.MyColRange(st.N)
			if len(colSeqs) != chi-clo {
				panic("col span wrong")
			}
			for i, seq := range colSeqs {
				if !bytes.Equal(seq, reads[clo+i]) {
					panic(fmt.Sprintf("col read %d wrong", clo+i))
				}
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

// Both halves of the exchange honour MaxMessageBytes: at 256 bytes the
// transposed half is chunked; at 64 a rank's own block (210 bytes on some
// rank) no longer fits one message on the row half either.
func TestRowColSequencesChunked(t *testing.T) {
	defer func(old int64) { mpi.MaxMessageBytes = old }(mpi.MaxMessageBytes)
	reads := makeReads(25, 17)
	for _, limit := range []int64{256, 64} {
		mpi.MaxMessageBytes = limit
		err := mpi.Run(4, func(c *mpi.Comm) {
			g := grid.New(c)
			st := FromGlobal(c, reads)
			rowSeqs, colSeqs := st.RowColSequences(g)
			rlo, _ := g.MyRowRange(st.N)
			for i, seq := range rowSeqs {
				if !bytes.Equal(seq, reads[rlo+i]) {
					panic("chunked row read wrong")
				}
			}
			clo, _ := g.MyColRange(st.N)
			for i, seq := range colSeqs {
				if !bytes.Equal(seq, reads[clo+i]) {
					panic("chunked col read wrong")
				}
			}
		})
		if err != nil {
			t.Fatalf("MaxMessageBytes=%d: %v", limit, err)
		}
	}
}

// A received sequence buffer must be exactly what the replicated lengths
// demand: a short one used to die as an anonymous slice-bounds panic, a long
// one was silently accepted.
func TestUnflattenChecksTotal(t *testing.T) {
	lens := []int32{3, 0, 2}
	got := unflatten([]byte("AAACC"), lens, "test")
	if string(got[0]) != "AAA" || len(got[1]) != 0 || string(got[2]) != "CC" {
		t.Fatalf("unflatten = %q", got)
	}
	for _, buf := range []string{"AAAC", "AAACCG"} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "transposed rank 3") || !strings.Contains(msg, "lengths demand 5") {
					t.Fatalf("buffer %q: panic %q does not name the source and the demand", buf, msg)
				}
			}()
			unflatten([]byte(buf), lens, "transposed rank 3, reads 7…9")
		}()
	}
}
