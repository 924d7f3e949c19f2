package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bidir"
	"repro/internal/dna"
	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/lacc"
	"repro/internal/mpi"
	"repro/internal/spmat"
	"repro/internal/trace"
)

// chainProblem is a contig-generation input with real sequences: chains
// linear chromosomes, each tiled by perChain error-free reads of readLen
// bases every step bases (every third one reverse-complemented), and the
// string graph of their consecutive overlaps — already transitively reduced,
// so every chromosome must come back as exactly one contig.
type chainProblem struct {
	genomes [][]byte
	seqs    [][]byte
	edges   []spmat.Triple[bidir.Edge]
}

func newChainProblem(chains, perChain, readLen, step int, seed int64) *chainProblem {
	rng := rand.New(rand.NewSource(seed))
	pr := &chainProblem{}
	type ref struct {
		pos int
		rc  bool
	}
	onRead := func(r ref, s, e int) (int32, int32) { // reference interval → the read's own forward strand
		if r.rc {
			return int32(r.pos + readLen - e), int32(r.pos + readLen - s)
		}
		return int32(s - r.pos), int32(e - r.pos)
	}
	for c := 0; c < chains; c++ {
		genome := make([]byte, (perChain-1)*step+readLen)
		for i := range genome {
			genome[i] = "ACGT"[rng.Intn(4)]
		}
		pr.genomes = append(pr.genomes, genome)
		refs := make([]ref, perChain)
		for i := range refs {
			refs[i] = ref{pos: i * step, rc: i%3 == 1}
			seq := append([]byte(nil), genome[i*step:i*step+readLen]...)
			if refs[i].rc {
				dna.RevCompInPlace(seq)
			}
			pr.seqs = append(pr.seqs, seq)
		}
		for i := 0; i+1 < perChain; i++ {
			u, v := int32(c*perChain+i), int32(c*perChain+i+1)
			s, e := refs[i+1].pos, refs[i].pos+readLen
			a := bidir.Aln{U: u, V: v, RC: refs[i].rc != refs[i+1].rc, Score: int32(e - s), LU: int32(readLen), LV: int32(readLen)}
			a.BU, a.EU = onRead(refs[i], s, e)
			a.BV, a.EV = onRead(refs[i+1], s, e)
			fwd, kind := bidir.Classify(a, bidir.Params{})
			rev, _ := bidir.Classify(a.Mirror(), bidir.Params{})
			if kind != bidir.Dovetail {
				panic("core: chain problem overlap is not a dovetail")
			}
			pr.edges = append(pr.edges,
				spmat.Triple[bidir.Edge]{Row: u, Col: v, Val: fwd},
				spmat.Triple[bidir.Edge]{Row: v, Col: u, Val: rev})
		}
	}
	return pr
}

// checkContigs panics unless the contigs are exactly the chromosomes.
func (pr *chainProblem) checkContigs(contigs []Contig) {
	want := map[string]bool{}
	for _, g := range pr.genomes {
		want[string(g)] = true
	}
	if len(contigs) != len(pr.genomes) {
		panic(fmt.Sprintf("%d contigs from %d chromosomes", len(contigs), len(pr.genomes)))
	}
	for _, c := range contigs {
		if !want[string(c.Seq)] && !want[string(dna.RevComp(c.Seq))] {
			panic(fmt.Sprintf("contig of %d bases is no chromosome", len(c.Seq)))
		}
	}
}

// BenchmarkContigGeneration is Algorithm 2 end to end at P = 4 on 32
// chromosomes of 64 reads × 3 kb (6 MB of reads, 3.9 MB of contigs): the
// sequence exchange and the local assembly move real bases, so bytes_per_op
// is the per-base copy budget of DESIGN.md §6 and CI gates it.
func BenchmarkContigGeneration(b *testing.B) {
	pr := newChainProblem(32, 64, 3000, 1900, 1)
	n := int32(len(pr.seqs))
	for _, async := range []bool{false, true} {
		b.Run(fmt.Sprintf("P=4/async=%v", async), func(b *testing.B) {
			err := mpi.Run(4, func(c *mpi.Comm) {
				g := grid.New(c)
				store := fasta.FromGlobal(c, pr.seqs)
				s := spmat.FromGlobalTriples(g, n, n, pr.edges, nil)
				for i := 0; i < b.N; i++ {
					res := ContigGeneration(s, store, trace.New(), false, async)
					if all := GatherContigs(c, res.Contigs); c.Rank() == 0 {
						pr.checkContigs(all)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestSequenceExchangeAllocationBudget pins the copy budget of the two steps
// that move bases: CommunicateSequences and LocalAssembly together may
// allocate at most 1.0 × the assigned read bytes plus the contig bytes on the
// raw protocol — a rank's own reads stay home, uncopied, and every other read
// is copied once into an exact-size frame per destination, received as a
// view, with one exact-size buffer per contig — so a growth-append, a
// decode-copy or an own part copied to itself cannot come back unnoticed. At
// P = 4 about a quarter of the reads stay home, so the remote ones are about
// 0.75 × (measured 0.87 × with the ids and the map; 1.13 × when every rank
// also copied its own reads into a frame addressed to itself, and 5 × + 3.8 ×
// before frames were sized exactly). The 2-bit protocol packs the remote
// reads into dense frames and unpacks them (a quarter, then 1 ×, of 0.75):
// its budget is 1.25 × (measured 1.10 ×; 1.44 × with the own part packed).
func TestSequenceExchangeAllocationBudget(t *testing.T) {
	pr := newChainProblem(16, 48, 3000, 1900, 2)
	n := int32(len(pr.seqs))
	for _, tc := range []struct {
		packed bool
		budget float64
	}{{false, 1.0}, {true, 1.25}} {
		t.Run(fmt.Sprintf("packed=%v", tc.packed), func(t *testing.T) {
			var allocated uint64
			var readBytes, contigBytes int64
			err := mpi.Run(4, func(c *mpi.Comm) {
				g := grid.New(c)
				store := fasta.FromGlobal(c, pr.seqs)
				s := spmat.FromGlobalTriples(g, n, n, pr.edges, nil)
				l, deg, _ := BranchRemoval(s)
				assign := PartitionContigs(lacc.Components(l), deg, &Result{})
				lg := InducedSubgraph(l, assign)

				// Rank 0 reads the process-wide counter between barriers, so
				// the delta is what all four ranks allocated in between.
				var before, after runtime.MemStats
				mpi.Barrier(c)
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				mpi.Barrier(c)
				seqs := CommunicateSequences(store, assign, tc.packed)
				contigs := LocalAssembly(lg, seqs)
				mpi.Barrier(c)
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
				}

				var rb, cb int64
				for _, sq := range seqs {
					rb += int64(len(sq))
				}
				for _, ct := range contigs {
					cb += int64(len(ct.Seq))
				}
				sum := func(a, b int64) int64 { return a + b }
				rb, cb = mpi.Allreduce(c, rb, sum), mpi.Allreduce(c, cb, sum)
				if all := GatherContigs(c, contigs); c.Rank() == 0 {
					pr.checkContigs(all)
					allocated, readBytes, contigBytes = after.TotalAlloc-before.TotalAlloc, rb, cb
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			limit := tc.budget*float64(readBytes) + float64(contigBytes)
			t.Logf("allocated %d bytes for %d read bytes + %d contig bytes (%.2f × reads + contigs; budget %.2f ×)",
				allocated, readBytes, contigBytes, (float64(allocated)-float64(contigBytes))/float64(readBytes), tc.budget)
			if float64(allocated) > limit {
				t.Fatalf("sequence exchange + local assembly allocated %d bytes, budget %.0f", allocated, limit)
			}
		})
	}
}
