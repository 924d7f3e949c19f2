// Package readsim generates synthetic genomes and simulated long reads.
//
// The paper evaluates on PacBio datasets for O. sativa, C. elegans and
// H. sapiens (Table 2). Those datasets (and the hardware to assemble them at
// full scale) are not available here, so this package provides the
// substitution documented in DESIGN.md: deterministic synthetic genomes with
// controllable repeat content plus a long-read simulator that preserves the
// knobs the evaluation's shape depends on — depth, read-length distribution,
// error rate and strand symmetry. Dataset presets mirror Table 2 at a
// laptop-tractable scale factor.
package readsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dna"
)

// GenomeConfig controls synthetic genome generation.
type GenomeConfig struct {
	Length int   // genome length in bases
	Seed   int64 // RNG seed; same seed → same genome
	// RepeatCount segments of RepeatLen bases are copied to random positions
	// to create the repeat structure that produces branching vertices in the
	// string graph. Zero means a repeat-free genome.
	RepeatCount int
	RepeatLen   int
}

// Genome generates a deterministic random genome.
func Genome(cfg GenomeConfig) []byte {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := make([]byte, cfg.Length)
	for i := range g {
		g[i] = dna.Bases[rng.Intn(4)]
	}
	for r := 0; r < cfg.RepeatCount; r++ {
		if cfg.RepeatLen <= 0 || cfg.RepeatLen >= cfg.Length {
			break
		}
		src := rng.Intn(cfg.Length - cfg.RepeatLen)
		dst := rng.Intn(cfg.Length - cfg.RepeatLen)
		copy(g[dst:dst+cfg.RepeatLen], g[src:src+cfg.RepeatLen])
	}
	return g
}

// ReadConfig controls the long-read simulator.
type ReadConfig struct {
	Depth       float64 // target coverage depth (Table 2 "Depth")
	MeanLen     int     // mean read length (Table 2 "Length")
	MinLen      int     // reads shorter than this are redrawn
	LenSigma    float64 // stddev of the length distribution as fraction of mean
	ErrorRate   float64 // total error rate (Table 2 "Error"); split 6:2:2 sub:ins:del
	Seed        int64
	ForwardOnly bool // if true, no reverse-complement reads (for debugging)
}

// Read is one simulated read with its ground truth.
type Read struct {
	Seq []byte
	Pos int  // start position on the reference
	End int  // one past the last reference base covered
	RC  bool // true if the read is the reverse complement of the reference
}

// Simulate draws reads from genome until the requested depth is reached.
// Reads are clipped at the genome ends (linear chromosome, as in the paper's
// model of a genome as linear chains).
func Simulate(genome []byte, cfg ReadConfig) []Read {
	if cfg.MeanLen <= 0 {
		panic("readsim: MeanLen must be positive")
	}
	if cfg.MinLen <= 0 {
		cfg.MinLen = cfg.MeanLen / 4
		if cfg.MinLen < 32 {
			cfg.MinLen = 32
		}
	}
	if cfg.LenSigma <= 0 {
		cfg.LenSigma = 0.25
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	targetBases := int64(float64(len(genome)) * cfg.Depth)
	var got int64
	var reads []Read
	for got < targetBases {
		l := int(math.Round(rng.NormFloat64()*cfg.LenSigma*float64(cfg.MeanLen) + float64(cfg.MeanLen)))
		if l < cfg.MinLen {
			continue
		}
		if l > len(genome) {
			l = len(genome)
		}
		pos := rng.Intn(len(genome) - l + 1)
		frag := genome[pos : pos+l]
		rc := !cfg.ForwardOnly && rng.Intn(2) == 1
		seq := make([]byte, l)
		copy(seq, frag)
		if rc {
			dna.RevCompInPlace(seq)
		}
		if cfg.ErrorRate > 0 {
			seq = applyErrors(seq, cfg.ErrorRate, rng)
		}
		reads = append(reads, Read{Seq: seq, Pos: pos, End: pos + l, RC: rc})
		got += int64(l)
	}
	return reads
}

// applyErrors introduces substitutions, insertions and deletions at the given
// total rate, split 60/20/20 like typical long-read error profiles.
func applyErrors(seq []byte, rate float64, rng *rand.Rand) []byte {
	out := make([]byte, 0, len(seq)+len(seq)/8)
	for i := 0; i < len(seq); i++ {
		r := rng.Float64()
		switch {
		case r < rate*0.6: // substitution
			b := seq[i]
			nb := dna.Bases[rng.Intn(4)]
			for nb == b {
				nb = dna.Bases[rng.Intn(4)]
			}
			out = append(out, nb)
		case r < rate*0.8: // insertion before this base
			out = append(out, dna.Bases[rng.Intn(4)], seq[i])
		case r < rate: // deletion
			// skip the base
		default:
			out = append(out, seq[i])
		}
	}
	if len(out) == 0 {
		out = append(out, seq[0])
	}
	return out
}

// Seqs extracts just the sequences, the pipeline's input shape.
func Seqs(reads []Read) [][]byte {
	out := make([][]byte, len(reads))
	for i := range reads {
		out[i] = reads[i].Seq
	}
	return out
}

// Dataset bundles a generated reference with its simulated reads and the
// metadata row of Table 2.
type Dataset struct {
	Name      string
	Genome    []byte
	Reads     []Read
	Depth     float64
	MeanLen   int
	ErrorRate float64
	// ScaleFactor records how much smaller the synthetic genome is than the
	// organism's in Table 2 (the "scale vs paper" column of cmd/experiments -exp table2).
	ScaleFactor float64
}

// Table2Row formats the dataset like a row of the paper's Table 2.
func (d *Dataset) Table2Row() string {
	var bases int64
	for _, r := range d.Reads {
		bases += int64(len(r.Seq))
	}
	return fmt.Sprintf("%-16s depth=%.0f reads=%d meanLen=%d input=%.2fMB genome=%.2fMb err=%.1f%%",
		d.Name, d.Depth, len(d.Reads), d.MeanLen,
		float64(bases)/1e6, float64(len(d.Genome))/1e6, d.ErrorRate*100)
}

// Preset identifies one of the Table 2 dataset substitutes.
type Preset int

const (
	// CElegansLike mirrors C. elegans: depth 40, low error (0.5%).
	CElegansLike Preset = iota
	// OSativaLike mirrors O. sativa: depth 30, low error (0.5%), longer reads.
	OSativaLike
	// HSapiensLike mirrors H. sapiens: depth 10, high error (15%).
	HSapiensLike
)

// String names the preset after the organism it substitutes.
func (p Preset) String() string {
	switch p {
	case CElegansLike:
		return "C.elegans-like"
	case OSativaLike:
		return "O.sativa-like"
	case HSapiensLike:
		return "H.sapiens-like"
	}
	return "unknown"
}

// Name is the preset's spelling shared by the -preset flags and the daemon's
// "preset" field (celegans | osativa | hsapiens); ParsePreset inverts it.
func (p Preset) Name() string {
	switch p {
	case CElegansLike:
		return "celegans"
	case OSativaLike:
		return "osativa"
	case HSapiensLike:
		return "hsapiens"
	}
	return "unknown"
}

// ParsePreset resolves a preset name (see Preset.Name).
func ParsePreset(name string) (Preset, error) {
	for _, p := range []Preset{CElegansLike, OSativaLike, HSapiensLike} {
		if p.Name() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown preset %q (want celegans|osativa|hsapiens)", name)
}

// table2Row is a preset's row of Table 2 plus the planted-repeat spacing
// Generate uses (one repeat per that many bases; rice is repeat-rich, so
// O. sativa-like genomes get the heaviest load).
type table2Row struct {
	depth, errRate float64
	meanLen        int     // Table 2 mean read length
	repeatSpacing  int     // one planted repeat per this many bases
	genomeMb       float64 // organism genome size, Mb
}

func (p Preset) table2() table2Row {
	switch p {
	case CElegansLike:
		return table2Row{40, 0.005, 14550, 40000, 100}
	case OSativaLike:
		return table2Row{30, 0.005, 19695, 20000, 500}
	case HSapiensLike:
		return table2Row{10, 0.15, 7401, 30000, 3200}
	}
	panic("readsim: unknown preset")
}

// CheckSize is the one gate on a Generate size that arrives from outside
// the program (a -size flag, a genome_len field): it must be at least one
// base, and the reads Generate would draw — preset depth × size bases — must
// fit in maxReadBytes when that bound is positive.
func CheckSize(p Preset, size int, maxReadBytes int64) error {
	if size < 1 {
		return fmt.Errorf("genome length %d: must be at least 1", size)
	}
	depth := p.table2().depth
	if bases := depth * float64(size); maxReadBytes > 0 && bases > float64(maxReadBytes) {
		return fmt.Errorf("genome length %d: %s simulates about %.0f read bytes (depth %.0f), over the %d-byte input limit",
			size, p, bases, depth, maxReadBytes)
	}
	return nil
}

// Generate builds a preset dataset. size is the synthetic genome length in
// bases (callers passing an outside value gate it with CheckSize); depth,
// read length ratio and error rate come from Table 2. Read lengths are
// scaled to genomeLen/20 capped at the Table 2 mean so a read still spans
// many overlaps without covering the whole toy genome.
//
// Genomes carry planted repeats longer than the reads, mirroring the repeat
// structure that fragments real assemblies (the reason the paper's O. sativa
// completeness is only 37%): repeats create the branch vertices that §4.2
// masks, so contigs break at repeat boundaries.
func Generate(p Preset, size int, seed int64) *Dataset {
	row := p.table2()
	meanLen := size / 20
	if meanLen > row.meanLen {
		meanLen = row.meanLen
	}
	if meanLen < 200 {
		meanLen = 200
	}
	genome := Genome(GenomeConfig{
		Length:      size,
		Seed:        seed,
		RepeatCount: size / row.repeatSpacing,
		RepeatLen:   meanLen * 3 / 2, // longer than reads: unbridgeable
	})
	reads := Simulate(genome, ReadConfig{
		Depth:     row.depth,
		MeanLen:   meanLen,
		ErrorRate: row.errRate,
		Seed:      seed + 1,
	})
	return &Dataset{
		Name:        p.String(),
		Genome:      genome,
		Reads:       reads,
		Depth:       row.depth,
		MeanLen:     meanLen,
		ErrorRate:   row.errRate,
		ScaleFactor: row.genomeMb * 1e6 / float64(size),
	}
}
