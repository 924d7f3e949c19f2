// Package repro reproduces "Distributed-Memory Parallel Contig Generation
// for De Novo Long-Read Genome Assembly" (Guidi, Raulet, Rokhsar, Oliker,
// Yelick, Buluç — ICPP 2022) as a pure-Go library.
//
// The public API lives in repro/elba; the paper's primary contribution
// (Algorithm 2, distributed contig generation) is internal/core; the
// substrates it depends on (MPI-like runtime, 2D process grid,
// intra-rank worker pools, distributed sparse matrices with SUMMA SpGEMM,
// distributed k-mer counting, the pluggable alignment-backend layer with its
// x-drop and wavefront (WFA) aligners, bidirected string-graph semantics,
// transitive reduction, FastSV connected components, LPT partitioning, read
// simulator, quality evaluator and baseline assemblers) each have their own
// package under internal/. See ARCHITECTURE.md for the layer map and
// DESIGN.md for the per-package system inventory; the paper-versus-measured
// record of every table and figure is regenerated by cmd/experiments.
//
// Ranks are placed by a pluggable transport beneath internal/mpi
// (DESIGN.md §11–§12): goroutines sharing in-process mailboxes (the
// default), a TCP mesh inside one process, one OS process per rank
// (cmd/elba -transport proc), or processes joined across machines through
// a rendezvous (cmd/elba -serve-rendezvous / -join; OPERATIONS.md is the
// deployment guide). The SPMD program is identical on every topology —
// contigs and traffic counters are bit-identical — and a rank process that
// dies mid-run aborts the job promptly with an error naming the dead rank.
//
// The pipeline is a typed stage graph (FastaReader → CountKmer →
// DetectOverlap → Alignment → TrReduction → ExtractContig) driven by an
// engine: pipeline.Plan validates all options upfront, RunUntil stops after
// any stage, ResumeFrom continues an Artifacts snapshot — any number of
// times, under different downstream parameters, so a TR-parameter sweep
// aligns once (BenchmarkStageSweep gates it) — and context cancellation
// unwinds every rank promptly. The public facade re-exports exactly that:
// elba.Assemble(reads, opt) for the whole pipeline, elba.Plan(opt) for the
// engine, with Options the only configuration surface; monolithic, staged
// and resumed execution produce bit-identical contigs and equal traffic
// counters (DESIGN.md §9).
//
// Execution is hybrid like the paper's MPI + threads design: P ranks ×
// Options.Threads intra-rank workers on the alignment and k-mer hot
// paths (the -threads flag on cmd/elba and cmd/experiments; default splits
// GOMAXPROCS across ranks), with communication overlapped against
// computation through internal/mpi's nonblocking layer
// (Isend/Irecv/Request, IBcast, IAlltoallv): the SUMMA SpGEMM
// prefetches the next round's panels while multiplying, the k-mer exchange
// drains while owners size count tables, and contig generation pipelines the
// read-sequence exchange against edge routing and the DFS walks. Every
// stage's traffic splits into comm_overlap vs comm_exposed counters feeding
// the perfmodel overlap term. Contig output is bit-identical for every
// thread count. Every command turns its flags into Options through one
// function, pipeline.Resolve — the one elbad's job specs go through too.
//
// The hot kernels are allocation-lean (DESIGN.md §8): k-mer counting runs a
// blocked Bloom filter in front of an open-addressing count table so
// singleton (erroneous) k-mers never enter it, extraction and the alignment
// wrapper reuse per-worker scratch, and the SpGEMM kernels accumulate
// through a generation-tagged sparse accumulator with a radix-style
// canonicalization in spmat.NewCOO. cmd/benchguard gates allocs_per_op
// alongside the work and traffic counters.
//
// Every number has one owner (DESIGN.md §7): the paper's tables and figures
// come from cmd/experiments, wall clock / allocations / RSS / throughput
// from the benchmark/ module, and the host-independent work, traffic and
// allocs_per_op gates from go test -bench (bench_test.go here plus the
// kernel benchmarks under internal/) through cmd/benchguard:
//
//	go run ./cmd/experiments -exp all         # Tables 1–4, Figures 4–6, §6.1, ablation
//	bash benchmark/run.sh                     # six workloads, end to end and per layer
//	go test -run '^$' -bench . -benchtime=1x -benchmem .   # counters CI gates
package repro
