package elba_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/elba"
)

// ExamplePlan demonstrates the staged entry point: Options is the whole
// configuration (all parameter errors surface at Plan, together), and the
// engine runs any reads under a context.
func ExamplePlan() {
	opt := elba.PresetOptions(elba.CElegansLike, 4)
	opt.AlignBackend = elba.BackendWFA
	eng, err := elba.Plan(opt)
	if err != nil {
		panic(err)
	}
	ds := elba.SimulateDataset(elba.CElegansLike, 30_000, 42)
	out, err := eng.Run(context.Background(), elba.ReadSeqs(ds.Reads))
	if err != nil {
		panic(err)
	}
	rep := elba.Evaluate(ds.Genome, out.Contigs)
	fmt.Println(len(out.Contigs) > 0, rep.Completeness > 90, rep.Misassemblies == 0)
	// Output: true true true
}

// ExampleEngine_ResumeFrom runs the pipeline once up to the Alignment
// stage, then resumes the snapshot under two transitive-reduction
// configurations — the expensive k-mer/SpGEMM/alignment phase executes a
// single time for the whole sweep, and the snapshot stays reusable.
func ExampleEngine_ResumeFrom() {
	ctx := context.Background()
	reads := elba.ReadSeqs(elba.SimulateDataset(elba.CElegansLike, 30_000, 42).Reads)
	opt := elba.PresetOptions(elba.CElegansLike, 4)
	opt.AlignBackend = elba.BackendWFA
	eng, err := elba.Plan(opt)
	if err != nil {
		panic(err)
	}
	arts, err := eng.RunUntil(ctx, reads, elba.StageAlignment)
	if err != nil {
		panic(err)
	}
	var contigCounts []int
	for _, fuzz := range []int32{150, 500} {
		opt.TRFuzz = fuzz
		swept, err := elba.Plan(opt)
		if err != nil {
			panic(err)
		}
		chain, err := swept.ResumeFrom(ctx, arts, elba.StageExtractContig)
		if err != nil {
			panic(err)
		}
		out, err := chain.Output()
		if err != nil {
			panic(err)
		}
		contigCounts = append(contigCounts, len(out.Contigs))
	}
	fmt.Println(arts.Stage() == elba.StageAlignment, len(contigCounts) == 2, contigCounts[0] > 0)
	// Output: true true true
}

// Example assembles a small simulated dataset end to end: simulate, run the
// distributed pipeline on a 2×2 grid, and evaluate against the reference.
// The wavefront alignment backend keeps the demo fast on this low-error
// preset; drop the AlignBackend line for the paper's x-drop DP (the contigs
// are the same either way).
func Example() {
	ds := elba.SimulateDataset(elba.CElegansLike, 30_000, 42)
	opt := elba.PresetOptions(elba.CElegansLike, 4)
	opt.AlignBackend = elba.BackendWFA
	out, err := elba.Assemble(elba.ReadSeqs(ds.Reads), opt)
	if err != nil {
		panic(err)
	}
	rep := elba.Evaluate(ds.Genome, out.Contigs)
	fmt.Println(len(out.Contigs) > 0, rep.Completeness > 90, rep.Misassemblies == 0)
	// Output: true true true
}

// Example_transport runs the same assembly over the in-process mailbox
// transport and the TCP socket mesh: Options.Transport decides where ranks
// live (goroutines, OS processes, machines — see OPERATIONS.md for the
// multi-host deployment), never what they compute, so contigs and traffic
// counters are bit-identical.
func Example_transport() {
	reads := elba.ReadSeqs(elba.SimulateDataset(elba.CElegansLike, 30_000, 42).Reads)
	outs := make(map[string]*elba.Output)
	for _, tr := range []string{elba.TransportInproc, elba.TransportTCP} {
		opt := elba.PresetOptions(elba.CElegansLike, 4)
		opt.AlignBackend = elba.BackendWFA
		opt.Transport = tr
		out, err := elba.Assemble(reads, opt)
		if err != nil {
			panic(err)
		}
		outs[tr] = out
	}
	a, b := outs[elba.TransportInproc], outs[elba.TransportTCP]
	same := len(a.Contigs) == len(b.Contigs)
	for i := range a.Contigs {
		same = same && bytes.Equal(a.Contigs[i].Seq, b.Contigs[i].Seq)
	}
	fmt.Println(same,
		a.Stats.CommBytes == b.Stats.CommBytes,
		a.Stats.CommMsgs == b.Stats.CommMsgs)
	// Output: true true true
}

// Example_failureHandler demonstrates reading a failure from the returned
// error: when a run's world is torn down early — here by context
// cancellation as the Alignment stage starts; in a multi-process run, by a
// rank dying — Run returns the cause. For transport-attributed deaths,
// FailedRank(err) recovers which rank was lost.
func Example_failureHandler() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := elba.PresetOptions(elba.CElegansLike, 4)
	opt.AlignBackend = elba.BackendWFA
	eng, err := elba.Plan(opt, elba.Observer{StageStart: func(stage string, _, _ int) {
		if stage == elba.StageAlignment {
			cancel()
		}
	}})
	if err != nil {
		panic(err)
	}
	_, err = eng.Run(ctx, elba.ReadSeqs(elba.SimulateDataset(elba.CElegansLike, 20_000, 42).Reads))
	_, attributed := elba.FailedRank(err)
	fmt.Println(err != nil, errors.Is(err, context.Canceled), attributed)
	// Output: true true false
}

// ExampleMergeContigs shows the §7 polishing pass joining overlapping
// contigs into longer sequences.
func ExampleMergeContigs() {
	ds := elba.SimulateDataset(elba.CElegansLike, 25_000, 5)
	opt := elba.PresetOptions(elba.CElegansLike, 1)
	opt.AlignBackend = elba.BackendWFA
	out, err := elba.Assemble(elba.ReadSeqs(ds.Reads), opt)
	if err != nil {
		panic(err)
	}
	merged := elba.MergeContigs(out.Contigs, elba.DefaultPolishConfig())
	fmt.Println(len(merged) <= len(out.Contigs))
	// Output: true
}
