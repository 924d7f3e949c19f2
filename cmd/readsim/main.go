// Command readsim generates synthetic genomes and simulated long reads —
// the stand-in for the paper's Table 2 PacBio datasets (see DESIGN.md §2).
//
// Generate a C. elegans-like dataset (depth 40, 0.5% error) at 200 kbp:
//
//	readsim -preset celegans -size 200000 -seed 1 -out reads.fa -ref ref.fa
//
// Or a fully custom dataset:
//
//	readsim -size 100000 -depth 20 -len 3000 -err 0.01 -out reads.fa
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/fasta"
	"repro/internal/readsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("readsim: ")
	var (
		preset  = flag.String("preset", "", "dataset preset: celegans | osativa | hsapiens (empty = custom)")
		size    = flag.Int("size", 100000, "genome length in bases")
		seed    = flag.Int64("seed", 1, "RNG seed (same seed → same dataset)")
		depth   = flag.Float64("depth", 20, "coverage depth (custom mode)")
		meanLen = flag.Int("len", 3000, "mean read length (custom mode)")
		errRate = flag.Float64("err", 0, "error rate, e.g. 0.005 (custom mode)")
		repeats = flag.Int("repeats", 0, "number of repeat segments to plant in the genome")
		repLen  = flag.Int("replen", 2000, "length of each planted repeat")
		out     = flag.String("out", "reads.fa", "output FASTA of simulated reads")
		refOut  = flag.String("ref", "", "optional output FASTA of the reference genome")
	)
	flag.Parse()

	var genome []byte
	var reads []readsim.Read
	var label string
	if *preset != "" {
		p, err := readsim.ParsePreset(*preset)
		if err == nil {
			err = readsim.CheckSize(p, *size, 0)
		}
		if err != nil {
			log.Fatal(err)
		}
		ds := readsim.Generate(p, *size, *seed)
		genome, reads, label = ds.Genome, ds.Reads, ds.Name
		fmt.Println(ds.Table2Row())
	} else {
		genome = readsim.Genome(readsim.GenomeConfig{
			Length: *size, Seed: *seed, RepeatCount: *repeats, RepeatLen: *repLen,
		})
		reads = readsim.Simulate(genome, readsim.ReadConfig{
			Depth: *depth, MeanLen: *meanLen, ErrorRate: *errRate, Seed: *seed + 1,
		})
		label = "custom"
		fmt.Printf("%s: genome=%d reads=%d depth=%.1f err=%.2f%%\n",
			label, len(genome), len(reads), *depth, *errRate*100)
	}

	recs := make([]fasta.Record, len(reads))
	for i, r := range reads {
		strand := "+"
		if r.RC {
			strand = "-"
		}
		recs[i] = fasta.Record{
			ID:  fmt.Sprintf("read_%06d pos=%d end=%d strand=%s", i, r.Pos, r.End, strand),
			Seq: r.Seq,
		}
	}
	if err := writeFasta(*out, recs); err != nil {
		log.Fatal(err)
	}
	if *refOut != "" {
		ref := []fasta.Record{{ID: fmt.Sprintf("%s_reference len=%d seed=%d", label, len(genome), *seed), Seq: genome}}
		if err := writeFasta(*refOut, ref); err != nil {
			log.Fatal(err)
		}
	}
}

func writeFasta(path string, recs []fasta.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fasta.Write(f, recs, 80)
}
