// Command quast evaluates an assembly against a reference genome, printing
// the Table 4 metrics (completeness, longest contig, contig count,
// misassemblies) plus N50 and coverage uniformity — the QUAST substitute of
// DESIGN.md §2.
//
//	quast -ref ref.fa -asm contigs.fa
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/fasta"
	"repro/internal/quality"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quast: ")
	var (
		refPath = flag.String("ref", "", "reference genome FASTA")
		asmPath = flag.String("asm", "", "assembly (contigs) FASTA")
	)
	flag.Parse()
	if *refPath == "" || *asmPath == "" {
		log.Fatal("need -ref and -asm")
	}
	ref := concatFasta(*refPath)
	contigs := seqsOf(*asmPath)
	rep := quality.Evaluate(ref, contigs)

	fmt.Printf("reference length     %12d\n", rep.GenomeLen)
	fmt.Printf("contigs              %12d\n", rep.NumContigs)
	fmt.Printf("total length         %12d\n", rep.TotalLen)
	fmt.Printf("longest contig       %12d\n", rep.LongestContig)
	fmt.Printf("N50                  %12d\n", rep.N50)
	fmt.Printf("completeness         %11.2f%%\n", rep.Completeness)
	fmt.Printf("misassembled contigs %12d\n", rep.Misassemblies)
	fmt.Printf("unaligned contigs    %12d\n", rep.Unaligned)
	fmt.Printf("coverage mean        %12.2f\n", rep.CoverageMean)
	fmt.Printf("coverage CV          %12.3f\n", rep.CoverageCV)
	fmt.Printf("duplication ratio    %12.3f\n", rep.DuplicationRatio)
}

func concatFasta(path string) []byte {
	var out []byte
	for _, s := range seqsOf(path) {
		out = append(out, s...)
	}
	return out
}

func seqsOf(path string) [][]byte {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	seqs, err := fasta.ReadSeqs(f)
	if err != nil {
		log.Fatal(err)
	}
	return seqs
}
