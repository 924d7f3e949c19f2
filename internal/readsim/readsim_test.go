package readsim

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dna"
)

func TestGenomeDeterministic(t *testing.T) {
	a := Genome(GenomeConfig{Length: 5000, Seed: 42})
	b := Genome(GenomeConfig{Length: 5000, Seed: 42})
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must give same genome")
	}
	c := Genome(GenomeConfig{Length: 5000, Seed: 43})
	if bytes.Equal(a, c) {
		t.Fatal("different seeds must differ")
	}
	if !dna.Valid(a) {
		t.Fatal("genome must be ACGT only")
	}
}

func TestGenomeRepeatsCreateDuplicates(t *testing.T) {
	g := Genome(GenomeConfig{Length: 20000, Seed: 1, RepeatCount: 3, RepeatLen: 500})
	if len(g) != 20000 {
		t.Fatal("length changed")
	}
	// Count 64-mers appearing more than once; with repeats there must be
	// hundreds, without essentially none.
	count := func(g []byte) int {
		seen := map[string]int{}
		for i := 0; i+64 <= len(g); i += 16 {
			seen[string(g[i:i+64])]++
		}
		dups := 0
		for _, c := range seen {
			if c > 1 {
				dups++
			}
		}
		return dups
	}
	plain := Genome(GenomeConfig{Length: 20000, Seed: 1})
	if count(g) <= count(plain) {
		t.Fatalf("repeats did not create duplicates: %d vs %d", count(g), count(plain))
	}
}

func TestSimulateErrorFreeReadsMatchReference(t *testing.T) {
	g := Genome(GenomeConfig{Length: 30000, Seed: 7})
	reads := Simulate(g, ReadConfig{Depth: 10, MeanLen: 2000, Seed: 3})
	if len(reads) == 0 {
		t.Fatal("no reads")
	}
	for i, r := range reads {
		frag := g[r.Pos:r.End]
		want := frag
		if r.RC {
			want = dna.RevComp(frag)
		}
		if !bytes.Equal(r.Seq, want) {
			t.Fatalf("read %d does not match its reference window", i)
		}
	}
}

func TestSimulateDepthApproximatelyMet(t *testing.T) {
	g := Genome(GenomeConfig{Length: 50000, Seed: 7})
	depth := 15.0
	reads := Simulate(g, ReadConfig{Depth: depth, MeanLen: 3000, Seed: 3})
	var bases int64
	for _, r := range reads {
		bases += int64(r.End - r.Pos)
	}
	got := float64(bases) / float64(len(g))
	if got < depth || got > depth+0.5 {
		t.Fatalf("depth %.2f outside [%v, %v]", got, depth, depth+0.5)
	}
}

func TestSimulateErrorRateApproximatelyMet(t *testing.T) {
	g := Genome(GenomeConfig{Length: 40000, Seed: 9})
	rate := 0.10
	reads := Simulate(g, ReadConfig{Depth: 8, MeanLen: 2500, ErrorRate: rate, Seed: 5, ForwardOnly: true})
	// Estimate the error rate by counting mismatches in an (ungapped) sliding
	// comparison is unreliable with indels; instead compare total edit events
	// by length drift + sampled identity. Here we use a cheap proxy: the
	// fraction of 21-mers of the read found in the reference.
	k := 21
	index := map[string]struct{}{}
	for i := 0; i+k <= len(g); i++ {
		index[string(g[i:i+k])] = struct{}{}
	}
	var hit, total int
	for _, r := range reads {
		for i := 0; i+k <= len(r.Seq); i += 7 {
			if _, ok := index[string(r.Seq[i:i+k])]; ok {
				hit++
			}
			total++
		}
	}
	frac := float64(hit) / float64(total)
	// Expected k-mer survival ≈ (1-rate)^k = 0.9^21 ≈ 0.109.
	want := math.Pow(1-rate, float64(k))
	if frac < want*0.5 || frac > want*2.0 {
		t.Fatalf("k-mer survival %.3f far from expected %.3f", frac, want)
	}
}

func TestSimulateStrandMix(t *testing.T) {
	g := Genome(GenomeConfig{Length: 30000, Seed: 11})
	reads := Simulate(g, ReadConfig{Depth: 12, MeanLen: 1500, Seed: 13})
	rc := 0
	for _, r := range reads {
		if r.RC {
			rc++
		}
	}
	if rc == 0 || rc == len(reads) {
		t.Fatalf("strand mix degenerate: %d/%d rc", rc, len(reads))
	}
	fwd := Simulate(g, ReadConfig{Depth: 5, MeanLen: 1500, Seed: 13, ForwardOnly: true})
	for _, r := range fwd {
		if r.RC {
			t.Fatal("ForwardOnly produced rc read")
		}
	}
}

func TestPresetsMirrorTable2(t *testing.T) {
	for _, p := range []Preset{CElegansLike, OSativaLike, HSapiensLike} {
		d := Generate(p, 100000, 5)
		if len(d.Genome) != 100000 {
			t.Fatalf("%v: genome size wrong", p)
		}
		if d.ScaleFactor <= 0 {
			t.Fatalf("%v: scale factor missing", p)
		}
		switch p {
		case CElegansLike:
			if d.Depth != 40 || d.ErrorRate != 0.005 {
				t.Fatalf("%v: wrong Table 2 params", p)
			}
		case OSativaLike:
			if d.Depth != 30 || d.ErrorRate != 0.005 {
				t.Fatalf("%v: wrong Table 2 params", p)
			}
		case HSapiensLike:
			if d.Depth != 10 || d.ErrorRate != 0.15 {
				t.Fatalf("%v: wrong Table 2 params", p)
			}
		}
		if row := d.Table2Row(); len(row) == 0 {
			t.Fatal("empty table row")
		}
	}
}

func TestPresetDeterministic(t *testing.T) {
	a := Generate(CElegansLike, 50000, 3)
	b := Generate(CElegansLike, 50000, 3)
	if len(a.Reads) != len(b.Reads) {
		t.Fatal("read count differs")
	}
	for i := range a.Reads {
		if !bytes.Equal(a.Reads[i].Seq, b.Reads[i].Seq) {
			t.Fatal("read differs")
		}
	}
}

func TestParsePreset(t *testing.T) {
	for name, want := range map[string]Preset{
		"celegans": CElegansLike,
		"osativa":  OSativaLike,
		"hsapiens": HSapiensLike,
	} {
		got, err := ParsePreset(name)
		if err != nil || got != want {
			t.Errorf("ParsePreset(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePreset("ecoli"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestCheckSize: a size Generate would choke on is an error, and the byte
// bound is the simulated read volume (depth × size), not the genome's.
func TestCheckSize(t *testing.T) {
	for _, size := range []int{0, -5} {
		if err := CheckSize(CElegansLike, size, 0); err == nil {
			t.Errorf("size %d accepted", size)
		}
	}
	if err := CheckSize(CElegansLike, 1<<40, 0); err != nil {
		t.Errorf("unbounded check refused a large size: %v", err)
	}
	// Depth 40: 1000 bases simulate 40000 read bytes.
	if err := CheckSize(CElegansLike, 1000, 40000); err != nil {
		t.Errorf("size at the bound refused: %v", err)
	}
	if err := CheckSize(CElegansLike, 1001, 40000); err == nil {
		t.Error("size over the bound accepted")
	}
	if err := CheckSize(HSapiensLike, 1001, 40000); err != nil {
		t.Errorf("depth-10 preset refused under the bound: %v", err)
	}
}
