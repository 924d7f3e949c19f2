// Command elba assembles long reads into contigs with the reproduced ELBA
// pipeline on a simulated distributed-memory machine of P ranks.
//
// Assemble a FASTA on 16 simulated ranks with the low-error parameters:
//
//	elba -in reads.fa -p 16 -out contigs.fa
//
// Or simulate and assemble a preset dataset, evaluating against the
// generated reference and printing the Figure 5-style stage breakdown:
//
//	elba -preset celegans -size 150000 -p 16 -breakdown
//
// Execution is hybrid: -p simulated ranks × -threads intra-rank workers on
// the alignment and k-mer hot paths (default: GOMAXPROCS split across
// ranks), with nonblocking communication overlapping the SUMMA, k-mer and
// sequence exchanges against local computation. Contigs are bit-identical
// for every -threads value.
// The flags resolve to one validated option set (pipeline.Resolve, the
// function elbad's job specs go through too) and the run is an engine call
// under a context, so an interrupt (Ctrl-C) cancels the stage graph cleanly:
// every simulated rank unwinds and the command exits with the cancellation
// error instead of hanging.
// -progress prints each stage as it starts and finishes.
//
// # Running multi-process
//
// By default the P ranks are goroutines of one process exchanging messages
// through in-process mailboxes. -transport selects the rank transport:
//
//	elba -preset celegans -p 4                      # inproc (default)
//	elba -preset celegans -transport tcp -p 4       # loopback TCP mesh, one process
//	elba -preset celegans -transport proc -np 4     # one OS process per rank
//
// With -transport proc the command serves a loopback rendezvous and
// re-executes itself once per rank as an ordinary -join worker (below), with
// its own flags plus -join, -rank and a loopback -listen; the workers wire a
// socket mesh and run the identical SPMD program — every message crosses a
// real process boundary through the wire codec. Rank 0's process gathers the
// contigs, prints the summary and writes every output file; the launcher
// forwards its stdout.
// -np is an mpirun-style alias for -p. Contigs are bit-identical and
// byte/message counters equal across all three transports — only wall time
// differs. (In proc mode -traceout, -cpuprofile and -memprofile cover rank
// 0's process only; -manifest covers every rank. A worker that dies aborts
// its peers instead of hanging them.)
//
// # Running across machines
//
// The proc launcher is the single-host special case of a general mesh: with
// -join, independently launched processes — on any mix of machines — wire
// themselves into one world through a rendezvous point (a -join worker
// records transport tcp in the manifest, or proc when the launcher started
// it). One machine hosts the bootstrap, then every rank joins it with the
// same assembly arguments:
//
//	hostA$ elba -serve-rendezvous :9100 -np 4
//	hostA$ elba -preset celegans -transport tcp -join hostA:9100 -rank 0 -np 4 &
//	hostA$ elba -preset celegans -transport tcp -join hostA:9100 -rank 1 -np 4 &
//	hostB$ elba -preset celegans -transport tcp -join hostA:9100 -rank 2 -np 4 &
//	hostB$ elba -preset celegans -transport tcp -join hostA:9100 -rank 3 -np 4 &
//
// Each worker listens for its peers (every interface, ephemeral port, unless
// -listen pins an address) and advertises an address derived from its route
// to the rendezvous; -advertise overrides it on NATed hosts. No shared
// filesystem is assumed: contigs and statistics stream to rank 0 over the
// mesh, every rank's stage rows and metric snapshot reach every process after
// each stage, and rank 0 alone prints the summary and writes -out and
// -manifest, whose metrics cover every rank whether or not the others were
// given -manifest. If any rank dies mid-run its peers abort promptly
// with an error naming the dead rank (and the resume point, when a snapshot
// completed). See OPERATIONS.md for ports, bootstrap ordering and failure
// semantics.
//
// Profile capture needs no throwaway harness: -cpuprofile and -memprofile
// write standard pprof files covering the whole assembly, e.g.
//
//	elba -preset celegans -p 4 -cpuprofile cpu.pb.gz -memprofile heap.pb.gz
//	go tool pprof cpu.pb.gz
//
// Observability rides the same run: -traceout writes a Perfetto-loadable
// event trace (open it in ui.perfetto.dev), and -manifest the
// machine-readable RUN.json run record — stage rows, contig checksum, and
// every rank's metric snapshot with their merge — that benchguard -manifest
// verifies:
//
//	elba -preset celegans -p 4 -traceout trace.json -manifest RUN.json
//
// Progress and stage streaming (-progress) go to stderr, so stdout stays
// machine-parseable when piping the summary lines.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/elba"
	"repro/internal/fasta"
	"repro/internal/faultinject"
	"repro/internal/mpi/transport/tcp"
	"repro/internal/pipeline"
	"repro/internal/readsim"
	"repro/internal/trace"
)

// Exit codes beyond the generic 0/1/2 (see OPERATIONS.md for the full
// table): assembly aborted because a peer rank died vs. stopped by the
// operator's interrupt.
const (
	exitRankFailure = 3
	exitInterrupted = 130
)

// optionFlags are the flags that determine the run's pipeline.Options: the
// job description proper, as opposed to where inputs and outputs live.
type optionFlags struct {
	preset, backend  string
	p, np, threads   int
	k, xdrop, trfuzz int
}

func (f *optionFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.preset, "preset", "", "simulate a dataset: celegans | osativa | hsapiens")
	fs.StringVar(&f.backend, "backend", elba.BackendXDrop, "alignment backend: "+strings.Join(elba.AlignBackends(), " | "))
	fs.IntVar(&f.threads, "threads", 0, "intra-rank workers for the alignment/k-mer hot paths (0 = GOMAXPROCS split across ranks)")
	fs.IntVar(&f.p, "p", 4, "simulated ranks (perfect square: 1,4,9,16,…)")
	fs.IntVar(&f.np, "np", 0, "alias for -p (mpirun-style spelling, e.g. -transport proc -np 4)")
	fs.IntVar(&f.k, "k", 0, "k-mer length override (default: preset/paper value)")
	fs.IntVar(&f.xdrop, "x", 0, "x-drop / wavefront-prune threshold override")
	fs.IntVar(&f.trfuzz, "trfuzz", 0, "transitive-reduction fuzz override (default: preset/paper value)")
}

// options resolves the parsed flags to validated Options through
// pipeline.Resolve: a zero override keeps the preset's value, anything else
// is applied and judged, so `-k -5` is an error, not the default.
func (f *optionFlags) options() (pipeline.Options, error) {
	p := f.p
	if f.np != 0 {
		p = f.np
	}
	return pipeline.Resolve(f.preset, p, pipeline.Overrides{
		Threads: f.threads, K: f.k, XDrop: int32(f.xdrop),
		TRFuzz: int32(f.trfuzz), Backend: f.backend,
	})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("elba: ")
	var of optionFlags
	of.register(flag.CommandLine)
	var (
		in          = flag.String("in", "", "input reads FASTA (mutually exclusive with -preset)")
		size        = flag.Int("size", 100000, "genome length for -preset")
		seed        = flag.Int64("seed", 1, "seed for -preset")
		outPath     = flag.String("out", "", "write contigs FASTA here")
		refPath     = flag.String("ref", "", "reference FASTA for a quality report")
		breakdown   = flag.Bool("breakdown", false, "print the per-stage runtime breakdown")
		progress    = flag.Bool("progress", false, "print each pipeline stage as it starts and finishes")
		doPolish    = flag.Bool("polish", false, "merge overlapping contigs (the paper's future-work pass)")
		cpuProf     = flag.String("cpuprofile", "", "write a pprof CPU profile of the assembly here")
		memProf     = flag.String("memprofile", "", "write a pprof heap profile (post-assembly, after GC) here")
		traceOut    = flag.String("traceout", "", "write a Perfetto-loadable event trace (JSON) here")
		manifestOut = flag.String("manifest", "", "write the machine-readable RUN.json run manifest here")
		transport   = flag.String("transport", elba.TransportInproc, "rank transport: inproc (goroutines + mailboxes) | tcp (loopback socket mesh) | proc (one OS process per rank); contigs are identical on all")
		checkpoint  = flag.String("checkpoint", "", "write durable checkpoints under this directory after completed stages, enabling -resume and supervised proc recovery")
		ckptEvery   = flag.String("checkpoint-every", "", "which stage boundaries to checkpoint: all (default) or one stage name")
		resume      = flag.String("resume", "", "finish a run from the most advanced committed checkpoint under this directory (same input and algorithmic options required)")
		maxRestarts = flag.Int("max-restarts", 3, "with -transport proc and -checkpoint: relaunch the worker group up to N times after a rank failure before giving up")
		serveRdv    = flag.String("serve-rendezvous", "", "host the bootstrap of an -np rank multi-host job at this address, then exit")
		join        = flag.String("join", "", "join a multi-host job: the rendezvous address (host:port); needs -rank and -np")
		rank        = flag.Int("rank", -1, "this process's world rank for -join (0 … np-1)")
		listen      = flag.String("listen", "", "mesh listener bind address for -join (default: every interface, ephemeral port)")
		advertise   = flag.String("advertise", "", "mesh address published to peers for -join (default: derived from the route to the rendezvous)")
	)
	flag.Parse()

	// Deterministic fault injection (chaos CI, recovery drills): a malformed
	// ELBA_FAULT spec is a fatal configuration error, not a silent no-op.
	// The launcher process arms too but runs no stages; only the worker whose
	// rank the spec names ever fires.
	if _, err := faultinject.FromEnv(); err != nil {
		log.Fatal(err)
	}

	// The whole job description is resolved and judged here, once, before
	// anything is simulated, dialled or re-exec'd: the proc launcher's np
	// workers repeat this on the same command line, so whatever passes in
	// the parent passes in them.
	opt, err := of.options()
	if err != nil {
		log.Fatal(err)
	}

	// -serve-rendezvous hosts only the bootstrap: serve the address exchange
	// for -np ranks, then exit. Any machine of the job (or none) can host it.
	if *serveRdv != "" {
		os.Exit(serveRendezvous(*serveRdv, opt.P))
	}

	var pr readsim.Preset
	switch {
	case of.preset != "" && *in != "":
		log.Fatal("-in and -preset are mutually exclusive")
	case of.preset != "":
		if pr, err = readsim.ParsePreset(of.preset); err != nil {
			log.Fatal(err)
		}
		if err := readsim.CheckSize(pr, *size, 0); err != nil {
			log.Fatalf("-size: %v", err)
		}
	case *in == "":
		log.Fatal("need -in or -preset")
	}

	// A -join worker is one rank of a multi-process world: it dials the
	// rendezvous and runs the ordinary assembly path below, with a world
	// wired over TCP instead of in-process mailboxes. The proc launcher
	// starts such workers on this host; -transport proc without -join is the
	// launcher.
	worker := *join != ""
	switch {
	case worker && (*rank < 0 || *rank >= opt.P):
		log.Fatalf("-join needs -rank in 0 … %d (got %d)", opt.P-1, *rank)
	case !worker && *rank >= 0:
		log.Fatal("-rank only makes sense with -join")
	case !worker && *transport == elba.TransportProc:
		// The workers get the flags as parsed, not os.Args: after a
		// positional argument or "--" the appended -join would be an
		// argument too, and a worker without it would launch a group.
		var args []string
		flag.Visit(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.Value.String()) })
		os.Exit(launchProc(args, opt.P, *checkpoint, *maxRestarts))
	}
	// Non-zero ranks compute but stay silent: results are gathered at rank 0,
	// whose process alone prints summaries and writes output files.
	quiet := worker && *rank > 0

	// Deployment settings sit on top of the resolved job description; Plan
	// judges them with the rest (an unknown -transport fails there, once).
	opt.CheckpointDir = *checkpoint
	opt.CheckpointEvery = *ckptEvery
	opt.Transport = *transport
	if worker {
		// A worker joins over sockets: the default inproc records tcp, proc
		// (the launcher's workers) and tcp stay, and anything else fails in
		// Plan before the rendezvous is dialled.
		if opt.Transport == elba.TransportInproc {
			opt.Transport = elba.TransportTCP
		}
		opt.NewWorld = joinWorld(*join, *rank, tcp.JoinConfig{Listen: *listen, Advertise: *advertise})
	}
	// Supervised relaunches ride the attempt count into the run manifest.
	restarts := 0
	if rs := os.Getenv(envProcRestarts); rs != "" {
		n, err := strconv.Atoi(rs)
		if err != nil {
			log.Fatalf("bad %s=%q: %v", envProcRestarts, rs, err)
		}
		restarts = n
	}

	// Observability handles are allocated before Plan so validation sees them;
	// both are result-neutral (contigs and traffic counters are identical
	// with tracing on or off). Every process keeps metrics: in a -join world
	// each rank's snapshot reaches rank 0's manifest only if its own process
	// collects one, and only rank 0 need be given -manifest.
	var traceRec *elba.Trace
	if *traceOut != "" {
		traceRec = elba.NewTrace(opt.P)
		opt.Trace = traceRec
	}
	opt.Metrics = elba.NewMetricSet(opt.P)

	var observers []elba.Observer
	if *progress {
		// Progress streams to stderr: stdout carries only the
		// machine-parseable summary lines.
		observers = append(observers, elba.Observer{
			StageStart: func(stage string, i, n int) {
				fmt.Fprintf(os.Stderr, "stage %d/%d %s...\n", i+1, n, stage)
			},
			StageEnd: func(stage string, sum *trace.Summary, wall time.Duration) {
				e := sum.Get(stage)
				fmt.Fprintf(os.Stderr, "stage %s done in %v (%.2f MB total, max %d msgs/rank)\n",
					stage, wall.Round(time.Millisecond), float64(e.SumBytes)/1e6, e.MaxMsgs)
			},
		})
	}
	eng, err := elba.Plan(opt, observers...)
	if err != nil {
		log.Fatal(err)
	}

	// Inputs load only once the whole configuration has been accepted.
	var reads [][]byte
	var reference []byte
	if of.preset != "" {
		ds := readsim.Generate(pr, *size, *seed)
		if !quiet {
			fmt.Println(ds.Table2Row())
		}
		reads, reference = readsim.Seqs(ds.Reads), ds.Genome
	} else if reads, err = readFasta(*in); err != nil {
		log.Fatal(err)
	}
	if *refPath != "" {
		ref, err := readFasta(*refPath)
		if err != nil {
			log.Fatal(err)
		}
		reference = nil
		for _, r := range ref {
			reference = append(reference, r...)
		}
	}

	// Ctrl-C cancels the stage graph: the context threads through the
	// simulated mpi world and unwinds every rank.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Profiling brackets the assembly call directly (no defers): every
	// log.Fatal in this command exits through os.Exit, which would skip a
	// deferred StopCPUProfile and leave a truncated, unreadable profile.
	// Opening both files first means a bad -memprofile path fails before
	// CPU profiling ever starts.
	// In a multi-process run only rank 0 writes profiles and artifacts: the
	// workers share the command line, so they would clobber one file.
	var cpuFile, memFile *os.File
	if *cpuProf != "" && !quiet {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		cpuFile = f
	}
	if *memProf != "" && !quiet {
		f, err := os.Create(*memProf)
		if err != nil {
			log.Fatal(err)
		}
		memFile = f
	}
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			log.Fatal(err)
		}
	}
	var result *elba.Output
	if *resume != "" {
		result, err = resumeRun(ctx, eng, reads, *resume)
	} else {
		result, err = eng.Run(ctx, reads)
	}
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); cerr != nil {
			log.Fatal(cerr)
		}
	}
	if memFile != nil {
		// Post-assembly heap snapshot: GC first so it shows live data (the
		// contigs and stats just produced), not collectible garbage.
		runtime.GC()
		if werr := pprof.WriteHeapProfile(memFile); werr != nil {
			log.Fatal(werr)
		}
		if cerr := memFile.Close(); cerr != nil {
			log.Fatal(cerr)
		}
	}
	if err != nil {
		// Distinct exit codes so supervisors and scripts can tell why the
		// assembly stopped without parsing the message: a dead peer rank is
		// retryable-with-recovery, an operator interrupt is not an error at
		// all (130 = 128+SIGINT, the shell convention). OPERATIONS.md tables
		// every code.
		log.Print(err)
		if _, ok := elba.FailedRank(err); ok {
			os.Exit(exitRankFailure)
		}
		if errors.Is(err, context.Canceled) {
			os.Exit(exitInterrupted)
		}
		os.Exit(1)
	}
	if quiet {
		// Worker ranks > 0: the contigs and statistics were gathered at rank
		// 0's process, which prints the summary and writes every artifact.
		return
	}
	if *doPolish {
		before := len(result.Contigs)
		result.Contigs = elba.MergeContigs(result.Contigs, elba.DefaultPolishConfig())
		fmt.Printf("polish: %d contigs -> %d\n", before, len(result.Contigs))
	}
	// Observability artifacts are written only on success (the manifest
	// records the contigs as output, post-polish if -polish ran).
	if traceRec != nil {
		if werr := traceRec.WriteFile(*traceOut); werr != nil {
			log.Fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "wrote trace to %s\n", *traceOut)
	}
	if *manifestOut != "" {
		man := result.Manifest(opt)
		man.Restarts = restarts
		if werr := man.WriteFile(*manifestOut); werr != nil {
			log.Fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "wrote manifest to %s\n", *manifestOut)
	}
	printSummary(result)
	if *breakdown {
		fmt.Println("\nStage breakdown (max across ranks):")
		fmt.Print(result.Stats.Timers.Breakdown(pipeline.StageNames()))
		printAlignmentPhases(result.Stats)
	}
	if reference != nil {
		rep := elba.Evaluate(reference, result.Contigs)
		fmt.Printf("quality: completeness=%.2f%% longest=%d contigs=%d misassembled=%d N50=%d covCV=%.3f\n",
			rep.Completeness, rep.LongestContig, rep.NumContigs, rep.Misassemblies, rep.N50, rep.CoverageCV)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := elba.WriteContigs(f, result.Contigs); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d contigs to %s\n", len(result.Contigs), *outPath)
	}
}

// resumeRun finishes a run from the most advanced committed checkpoint under
// dir (the engine refuses one whose options fingerprint or reads checksum
// disagree with this run's) and returns the completed Output.
func resumeRun(ctx context.Context, eng *elba.Engine, reads [][]byte, dir string) (*elba.Output, error) {
	arts, err := eng.LoadCheckpoint(ctx, reads, dir)
	if err != nil {
		return nil, err
	}
	defer arts.Close()
	fin, err := eng.ResumeFrom(ctx, arts, elba.StageExtractContig)
	if err != nil {
		return nil, err
	}
	return fin.Output()
}

// readFasta loads the sequences of a FASTA file.
func readFasta(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fasta.ReadSeqs(f)
}

// printAlignmentPhases says how much of the Alignment stage the
// containment-first schedule avoided: pairs aligned per phase against the
// candidate count (the rest could not change R: both reads already known
// contained, or one known and its seeds ruling out a containment of the
// other).
func printAlignmentPhases(s elba.Stats) {
	if s.AlignedPairs == 0 {
		return // resumed past Alignment from artifacts that carry no count
	}
	p1 := s.Timers.Get(pipeline.AlignmentPhases[0])
	p2 := s.Timers.Get(pipeline.AlignmentPhases[1])
	fmt.Printf("Alignment: aligned %d of %d candidate pairs (phase 1 %d in %s, phase 2 %d in %s), skipped %d that cannot change R\n",
		s.AlignedPairs, s.CandidatePairs, p1.SumWork, p1.MaxDur.Round(time.Microsecond),
		p2.SumWork, p2.MaxDur.Round(time.Microsecond), s.CandidatePairs-s.AlignedPairs)
}

func printSummary(out *elba.Output) {
	s := out.Stats
	fmt.Printf("P=%d threads/rank=%d reads=%d kmers=%d candidates=%d aligned=%d overlaps=%d contained=%d\n",
		s.P, s.Threads, s.NumReads, s.NumKmers, s.CandidatePairs, s.AlignedPairs, s.KeptOverlaps, s.ContainedReads)
	fmt.Printf("TR: %d iterations, %d edges removed; branches=%d contigs=%d\n",
		s.TR.Iterations, s.TR.EdgesRemoved, s.BranchVertices, s.NumContigs)
	longest := 0
	if len(out.Contigs) > 0 {
		longest = len(out.Contigs[0].Seq)
	}
	fmt.Printf("contigs=%d longest=%d wall=%v comm=%.1fMB\n",
		len(out.Contigs), longest, s.WallTime.Round(1e6), float64(s.CommBytes)/1e6)
}
