package dna

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = Bases[rng.Intn(4)]
	}
	return s
}

func TestPaperExample(t *testing.T) {
	// §2: "Given a string v = ATTCG, its reverse complement is v' = CGAAT".
	got := RevComp([]byte("ATTCG"))
	if string(got) != "CGAAT" {
		t.Fatalf("RevComp(ATTCG) = %s, want CGAAT", got)
	}
}

func TestComplementPairs(t *testing.T) {
	pairs := map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C'}
	for b, c := range pairs {
		if Complement(b) != c {
			t.Errorf("Complement(%c) = %c, want %c", b, Complement(b), c)
		}
		if Complement(b|0x20) != c {
			t.Errorf("lower-case complement broken for %c", b)
		}
	}
}

// TestRevCompInvolutionIUPAC: every upper-case letter, IUPAC ambiguity codes
// included, comes back to itself after two reverse complements, a lower-case
// one comes back upper-cased, and the ambiguity codes swap with their IUPAC
// partners.
func TestRevCompInvolutionIUPAC(t *testing.T) {
	var upper, lower []byte
	for b := byte('A'); b <= 'Z'; b++ {
		upper, lower = append(upper, b), append(lower, b|0x20)
	}
	if got := RevComp(RevComp(upper)); string(got) != string(upper) {
		t.Fatalf("RevComp(RevComp(%s)) = %s", upper, got)
	}
	if got := RevComp(RevComp(lower)); string(got) != string(upper) {
		t.Fatalf("RevComp(RevComp(%s)) = %s, want %s", lower, got, upper)
	}
	for b, c := range map[byte]byte{'R': 'Y', 'K': 'M', 'B': 'V', 'D': 'H', 'S': 'S', 'W': 'W', 'N': 'N', 'X': 'X'} {
		if Complement(b) != c || Complement(c) != b || Complement(b|0x20) != c {
			t.Errorf("Complement(%c) = %c, Complement(%c) = %c, Complement(%c) = %c", b, Complement(b), c, Complement(c), b|0x20, Complement(b|0x20))
		}
	}
}

func TestCodeRoundTrip(t *testing.T) {
	for code := byte(0); code < 4; code++ {
		if Code(Base(code)) != code {
			t.Fatalf("code %d does not round-trip", code)
		}
	}
	if Code('N') != 0xFF || IsBase('N') {
		t.Fatal("N must not be a base")
	}
	if !IsBase('a') || Code('a') != 0 {
		t.Fatal("lower-case bases must code")
	}
}

func TestComplementCodeMatchesASCII(t *testing.T) {
	for code := byte(0); code < 4; code++ {
		if Base(ComplementCode(code)) != Complement(Base(code)) {
			t.Fatalf("code complement mismatch at %d", code)
		}
	}
}

func TestRevCompInvolution(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randSeq(rng, int(n))
		return bytes.Equal(RevComp(RevComp(s)), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRevCompInPlaceMatches(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randSeq(rng, int(n))
		want := RevComp(s)
		cp := append([]byte(nil), s...)
		RevCompInPlace(cp)
		return bytes.Equal(cp, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRevCompRange(t *testing.T) {
	s := []byte("AACTGAAG")
	// Paper Fig 3: l1 = AACTGAAG, its reverse complement is CTTCAGTT.
	if got := RevCompRange(s, 0, len(s)-1); string(got) != "CTTCAGTT" {
		t.Fatalf("full-range revcomp = %s", got)
	}
	// l[j:i] with j>i — descending slice semantics: l1[7:4] on the original
	// read means revcomp of l1[4..7] = revcomp(GAAG) = CTTC.
	if got := RevCompRange(s, 4, 7); string(got) != "CTTC" {
		t.Fatalf("RevCompRange(4,7) = %s, want CTTC", got)
	}
	if got := RevCompRange(s, 5, 4); got != nil {
		t.Fatalf("inverted range must be empty, got %s", got)
	}
	// Single element.
	if got := RevCompRange(s, 2, 2); string(got) != "G" {
		t.Fatalf("single-base revcomp = %s, want G (complement of C)", got)
	}
}

func TestRevCompRangeMatchesFull(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randSeq(rng, int(n%64)+2)
		lo := rng.Intn(len(s))
		hi := lo + rng.Intn(len(s)-lo)
		want := RevComp(s[lo : hi+1])
		got := RevCompRange(s, lo, hi)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValid(t *testing.T) {
	if !Valid([]byte("ACGTacgt")) {
		t.Fatal("ACGTacgt must be valid")
	}
	if Valid([]byte("ACGNT")) {
		t.Fatal("N must be invalid")
	}
	if !Valid(nil) {
		t.Fatal("empty must be valid")
	}
}

func TestRevCompIntoMatchesRevComp(t *testing.T) {
	var buf []byte
	for _, s := range [][]byte{nil, []byte("A"), []byte("ATTCG"), []byte("acgtNxACGT")} {
		buf = RevCompInto(buf, s)
		if want := RevComp(s); !bytes.Equal(buf, want) {
			t.Fatalf("RevCompInto(%q) = %q, want %q", s, buf, want)
		}
	}
	// The buffer is reused when large enough: shrinking input must not
	// leave stale bytes visible.
	buf = RevCompInto(buf, []byte("GGGGGGGG"))
	if buf = RevCompInto(buf, []byte("AT")); string(buf) != "AT" {
		t.Fatalf("reused buffer = %q, want AT", buf)
	}
}

func TestRevCompIntoGrowsGeometrically(t *testing.T) {
	// A rank meets ever-longer reads; the buffer must not be re-allocated
	// for each new longest one.
	src := bytes.Repeat([]byte("ACGT"), 2048)
	var buf []byte
	grows := 0
	for n := 1; n <= len(src); n++ {
		before := cap(buf)
		if buf = RevCompInto(buf, src[:n]); cap(buf) != before {
			grows++
		}
	}
	if grows > 40 {
		t.Fatalf("%d re-allocations over lengths 1..%d, want O(log n)", grows, len(src))
	}
}
