package main

// metricDef names one metric with its unit and direction. Bound is the share
// of the baseline median by which an end-to-end metric may get worse before
// -compare (and the driver, through BENCHMARK.json) calls it a regression;
// per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Source string // where the number comes from (README table)
}

// endToEnd lists the metrics every workload reports with tracing off, in
// print order. BENCHMARK.json repeats name/unit/better/bound verbatim; a unit
// test keeps the two in step. failed_frac is reported beside them (results
// JSON, -compare) but is not in this table: it is 0 on a healthy tree, and
// the driver reads failures from the attempted/failed counts instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median of ≥3 set-ups (input generation, graph construction, server start + upload) plus the untimed warm-up operations"},
	{"wall_s", "s", "lower", 0.25, "benchmark clock around one operation; median over the run's operations"},
	{"cpu_s", "s", "lower", 0.25, "getrusage user+sys delta around one operation; median"},
	{"allocs_per_op", "count", "lower", 0.15, "runtime.MemStats.Mallocs delta around one operation; median"},
	{"alloc_mb_per_op", "MB", "lower", 0.10, "runtime.MemStats.TotalAlloc delta around one operation; median"},
	{"peak_rss_mb", "MB", "lower", 0.20, "getrusage ru_maxrss of the run's process after the last timed operation"},
	{"completeness_pct", "%", "higher", 0.10, "quality.Evaluate against the generator's reference (layout: exact contig placements)"},
	{"contig_n50", "bases", "higher", 0.05, "quality.Evaluate against the generator's reference (layout: contig lengths)"},
}

// serveEndToEnd are the three serve-sweep latencies. They are end-to-end for
// that workload (-compare gates them with these bounds) but BENCHMARK.json
// lists them under per_layer, because the driver requires every end_to_end
// metric from every workload and they do not exist on the other five.
var serveEndToEnd = []metricDef{
	{"cold_job_s", "s", "lower", 0.25, "serve-sweep: POST /jobs to last contigs byte of the cache-miss job"},
	{"cached_job_p50_ms", "ms", "lower", 0.25, "serve-sweep: same interval, median over the cache-hit jobs"},
	{"cached_job_p90_ms", "ms", "lower", 0.25, "serve-sweep: same interval, 90th percentile over the cache-hit jobs"},
}

// perLayer lists the traced-run metrics in print order.
var perLayer = []metricDef{
	{"kmer.count_s", "s", "lower", 0, "CountKmer StageStart→StageEnd"},
	{"kmer.occurrences", "count", "lower", 0, "Stats.Timers CountKmer work"},
	{"kmer.reliable_kmers", "count", "higher", 0, "Stats.NumKmers"},
	{"kmer.comm_bytes", "bytes", "lower", 0, "Stats.Timers CountKmer bytes"},

	{"overlap.detect_s", "s", "lower", 0, "DetectOverlap StageStart→StageEnd"},
	{"spmat.spgemm_products", "count", "lower", 0, "Stats.Timers DetectOverlap work"},
	{"spmat.products_per_s", "1/s", "higher", 0, "spgemm_products / detect_s"},
	{"overlap.candidates", "count", "lower", 0, "Stats.CandidatePairs"},
	{"overlap.products_per_candidate", "ratio", "lower", 0, "spgemm_products / candidates (wasted-work ratio)"},
	{"overlap.detect_comm_bytes", "bytes", "lower", 0, "Stats.Timers DetectOverlap bytes"},

	{"wfa.align_s", "s", "lower", 0, "Alignment StageStart→StageEnd, wfa backend"},
	{"wfa.cells", "count", "lower", 0, "Stats.Timers Alignment work, wfa backend"},
	{"wfa.cells_per_s", "1/s", "higher", 0, "cells / align_s"},
	{"align.align_s", "s", "lower", 0, "Alignment StageStart→StageEnd, xdrop backend"},
	{"align.cells", "count", "lower", 0, "Stats.Timers Alignment work, xdrop backend"},
	{"align.cells_per_s", "1/s", "higher", 0, "cells / align_s"},
	{"overlap.kept_overlaps", "count", "higher", 0, "Stats.KeptOverlaps"},
	{"overlap.keep_ratio", "ratio", "higher", 0, "kept_overlaps / candidates"},
	{"overlap.contained_reads", "count", "lower", 0, "Stats.ContainedReads"},

	{"tr.reduce_s", "s", "lower", 0, "TrReduction stage (assemblies) or the tr.Reduce call (layout)"},
	{"tr.iterations", "count", "lower", 0, "tr.Stats.Iterations"},
	{"tr.edges_removed", "count", "higher", 0, "tr.Stats.EdgesRemoved"},
	{"tr.products", "count", "lower", 0, "semiring products summed over ranks"},
	{"tr.comm_bytes", "bytes", "lower", 0, "traffic attributed to the reduction"},

	{"core.contig_s", "s", "lower", 0, "ExtractContig stage, or the sum of the six direct calls (layout)"},
	{"core.branch_removal_s", "s", "lower", 0, "core.BranchRemoval"},
	{"core.branch_vertices", "count", "lower", 0, "vertices masked by branch removal"},
	{"lacc.components_s", "s", "lower", 0, "lacc.Components"},
	{"partition.partition_s", "s", "lower", 0, "core.PartitionContigs (LPT on rank 0)"},
	{"partition.load_imbalance", "ratio", "lower", 0, "max / mean reads per rank after LPT"},
	{"core.induced_subgraph_s", "s", "lower", 0, "core.InducedSubgraph"},
	{"core.sequence_comm_s", "s", "lower", 0, "core.CommunicateSequences"},
	{"core.local_assembly_s", "s", "lower", 0, "core.LocalAssembly"},
	{"core.gather_s", "s", "lower", 0, "core.GatherContigs (layout only)"},
	{"core.contigs", "count", "lower", 0, "contigs gathered at rank 0"},
	{"core.assigned_reads", "count", "higher", 0, "reads redistributed for local assembly"},
	{"core.comm_bytes", "bytes", "lower", 0, "traffic attributed to contig generation"},

	{"mpi.comm_bytes", "bytes", "lower", 0, "World.TotalBytes / Stats.CommBytes for one operation"},
	{"mpi.comm_msgs", "count", "lower", 0, "World.TotalMsgs / Stats.CommMsgs for one operation"},
	{"mpi.exposed_bytes", "bytes", "lower", 0, "bytes not sent through the nonblocking layer"},
	{"mpi.exposed_frac", "ratio", "lower", 0, "exposed_bytes / comm_bytes"},
	{"mpi.pingpong_us", "us", "lower", 0, "8 B round trip rank 0↔1, 2000 trips, on the workload's world kind (layout only)"},
	{"mpi.alltoallv_mb_s", "MB/s", "higher", 0, "1 MiB per rank pair × 20 rounds (layout only)"},
	{"mpi.bcast_mb_s", "MB/s", "higher", 0, "1 MiB × 20 broadcasts, bytes delivered per second (layout only)"},

	{"wire.marshal_mb_s", "MB/s", "higher", 0, "wire.Marshal of a 64 MiB []byte (bulk-copy path)"},
	{"wire.unmarshal_mb_s", "MB/s", "higher", 0, "wire.Unmarshal of the same frame"},
	{"wire.marshal_struct_mb_s", "MB/s", "higher", 0, "wire.Marshal of 1M spmat.Triple[bidir.Edge] (field-by-field path)"},
	{"wire.unmarshal_struct_mb_s", "MB/s", "higher", 0, "wire.Unmarshal of the same frame"},

	{"serve.queue_wait_ms", "ms", "lower", 0, "POST /jobs sent → started event arrives; median over hits"},
	{"pipeline.checkpoint_load_ms", "ms", "lower", 0, "started → first stage_start on a hit; median"},
	{"serve.resume_stages_ms", "ms", "lower", 0, "first stage_start → done on a hit (TrReduction + ExtractContig); median"},
	{"serve.fetch_ms", "ms", "lower", 0, "done → contigs body read; median over hits"},
	{"pipeline.checkpoint_write_ms", "ms", "lower", 0, "cold job: Alignment stage_end → TrReduction stage_start"},
	{"serve.cache_hit_ratio", "ratio", "higher", 0, "GET /cache hits / (hits + misses)"},
	{"serve.cache_entry_bytes", "bytes", "lower", 0, "GET /cache bytes"},

	{"pipeline.p1_wall_s", "s", "lower", 0, "one P=1, Threads=1 run of lowerr-wfa (single-threaded reference)"},
	{"trace_overhead_frac", "ratio", "lower", 0, "traced operation wall / untraced operation wall − 1, same process"},
}

// allEndToEnd is what the results file and -compare cover: the common
// metrics plus the serve-sweep latencies.
func allEndToEnd() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), serveEndToEnd...)
}

// allPerLayer is what a traced run reports: the layer metrics plus the
// serve-sweep latencies (see serveEndToEnd).
func allPerLayer() []metricDef {
	return append(append([]metricDef(nil), perLayer...), serveEndToEnd...)
}
