package main

import (
	"time"

	"repro/internal/bidir"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/lacc"
	"repro/internal/mpi"
	"repro/internal/mpi/transport/tcp"
	"repro/internal/overlap"
	"repro/internal/spmat"
	"repro/internal/tr"
	"repro/internal/trace"
)

// layoutBases is the total genome size of the layout problem at scale 1.
const layoutBases = 10_000_000

// layoutSpec is one of the two layout workloads: the same passes on worlds
// of different transports.
type layoutSpec struct {
	Name     string
	Why      string
	NewWorld func() (*mpi.World, error)
}

var layoutSpecs = []layoutSpec{
	{
		Name: "layout-inproc",
		Why:  "synthetic string-graph layout, no k-mers or alignment: the only place tr, lacc, partition and core do the work, and SpGEMM runs under the tr semiring",
		NewWorld: func() (*mpi.World, error) {
			return mpi.NewWorld(benchP), nil
		},
	},
	{
		Name: "layout-tcp",
		Why:  "the same passes with every message crossing a loopback socket, so mpi/transport/tcp and mpi/wire carry part of the pass here and no socket cost on layout-inproc",
		NewWorld: func() (*mpi.World, error) {
			eps, err := tcp.NewLocal(benchP)
			if err != nil {
				return nil, err
			}
			return mpi.NewWorldTransport(eps...), nil
		},
	},
}

func (sp layoutSpec) workload() workload {
	return workload{Name: sp.Name, Why: sp.Why, Run: sp.run}
}

// layoutPass is what one pass over the layout problem produced.
type layoutPass struct {
	Sample    opSample
	Contigs   []core.Contig
	CommBytes int64
	CommMsgs  int64
	Exposed   int64 // bytes not sent through the nonblocking layer
	TR        tr.Stats
	Branch    int64
	Assigned  int64
	MaxLoad   int64
	// Traced passes only: rank 0's clock around each direct call (a barrier
	// on both sides, so the slowest rank sets the span) and every rank's
	// traffic and work accounting.
	Spans  map[string]float64
	Timers []*trace.Timers
}

// Span names of a traced pass, in call order.
const (
	spanStringGraph = "overlap.to_string_graph"
	spanReduce      = "tr.reduce"
	spanBranch      = "core.branch_removal"
	spanComponents  = "lacc.components"
	spanPartition   = "partition.partition"
	spanInduced     = "core.induced_subgraph"
	spanSeqComm     = "core.sequence_comm"
	spanAssembly    = "core.local_assembly"
	spanGather      = "core.gather"
)

var contigSpans = []string{spanBranch, spanComponents, spanPartition, spanInduced, spanSeqComm, spanAssembly}

// pass runs one layout pass on a fresh world. The world, the process grid,
// the read store and the distribution of R are built before the clock
// starts: they are the pass's input, not the layers under test. An untraced
// pass is the pipeline's own schedule (nonblocking, through
// core.ContigGeneration); a traced pass makes the same steps as direct
// blocking calls with a barrier around each.
func (sp layoutSpec) pass(in *layoutInput, traced bool) (*layoutPass, error) {
	w, err := sp.NewWorld()
	if err != nil {
		return nil, err
	}
	defer w.Close()
	out := &layoutPass{}
	if traced {
		out.Spans = map[string]float64{}
		out.Timers = make([]*trace.Timers, benchP)
	}
	n := int32(len(in.Seqs))
	err = w.Run(func(c *mpi.Comm) {
		g := grid.New(c)
		store := fasta.FromGlobal(c, in.Seqs)
		r := spmat.FromGlobalTriples[bidir.Aln](g, n, n, in.Triples, nil)
		root := c.Rank() == 0

		var contigs []core.Contig
		var res *core.Result
		var st tr.Stats
		var m meter
		mpi.Barrier(c)
		if root {
			m.start()
		}
		if !traced {
			s := overlap.ToStringGraph(r, layoutMaxOverhang)
			st = tr.Reduce(s, layoutTRFuzz, layoutTRMaxIter, true)
			res = core.ContigGeneration(s, store, trace.New(), false, true)
			contigs = core.GatherContigs(c, res.Contigs)
		} else {
			tm := trace.New()
			out.Timers[c.Rank()] = tm
			step := func(name string, fn func()) {
				mpi.Barrier(c)
				t := time.Now()
				tm.Stage(name, c, fn)
				mpi.Barrier(c)
				if root {
					out.Spans[name] += time.Since(t).Seconds()
				}
			}
			var s, l *spmat.Dist[bidir.Edge]
			var deg, labels, assign *spmat.DistVec[int32]
			var lg *core.LocalGraph
			var seqs map[int32][]byte
			res = &core.Result{}
			step(spanStringGraph, func() { s = overlap.ToStringGraph(r, layoutMaxOverhang) })
			step(spanReduce, func() { st = tr.Reduce(s, layoutTRFuzz, layoutTRMaxIter, false) })
			tm.AddWork(spanReduce, st.Products)
			step(spanBranch, func() { l, deg, res.BranchVertices = core.BranchRemoval(s) })
			step(spanComponents, func() { labels = lacc.Components(l) })
			step(spanPartition, func() { assign = core.PartitionContigs(labels, deg, res) })
			step(spanInduced, func() { lg = core.InducedSubgraph(l, assign) })
			step(spanSeqComm, func() { seqs = core.CommunicateSequences(store, assign, false) })
			step(spanAssembly, func() { res.Contigs = core.LocalAssembly(lg, seqs) })
			step(spanGather, func() { contigs = core.GatherContigs(c, res.Contigs) })
			res.MaxLoad = mpi.Allreduce(c, int64(len(lg.Globals)), func(a, b int64) int64 { return max(a, b) })
		}
		mpi.Barrier(c)
		if root {
			out.Sample = m.stop()
			out.Contigs, out.TR = contigs, st
			out.Branch, out.Assigned, out.MaxLoad = res.BranchVertices, res.AssignedReads, res.MaxLoad
		}
	})
	if err != nil {
		return nil, err
	}
	out.CommBytes, out.CommMsgs = w.TotalBytes(), w.TotalMsgs()
	out.Exposed = out.CommBytes
	for _, rs := range w.Stats() {
		out.Exposed -= rs.BytesAsync
	}
	return out, nil
}

func (sp layoutSpec) run(cfg runConfig) *runRecord {
	rec := newRecord(sp.Name, cfg)
	if cfg.Traced {
		setWireProbes(rec)
	}
	in, setupS, _ := timeSetups(func() (*layoutInput, error) {
		return generateLayout(cfg.Seed, int(layoutBases*cfg.Scale)), nil
	})

	var last, lastTraced *layoutPass
	spans := map[string][]float64{}
	var tracedWall, plainWall []float64
	ops := 0
	op := func(timed bool) (opSample, error) {
		traced := cfg.Traced && timed && ops%2 == 0
		if timed {
			ops++
		}
		ps, err := sp.pass(in, traced)
		if err != nil {
			return opSample{}, err
		}
		if err := rec.sameContigs(contigSeqs(ps.Contigs)); err != nil {
			return ps.Sample, err
		}
		switch {
		case traced:
			tracedWall = append(tracedWall, ps.Sample.Wall)
			for name, d := range ps.Spans {
				spans[name] = append(spans[name], d)
			}
			lastTraced = ps
		case timed:
			plainWall = append(plainWall, ps.Sample.Wall)
			last = ps
		}
		return ps.Sample, nil
	}
	samples, warmS := rec.opLoop(cfg.Seconds, 2, 2, 0, op)
	rss := peakRSSMB()
	if last == nil {
		return rec.finish()
	}

	// Every contig is an exact piece of one chromosome, the planted edges
	// made branch vertices, and the contigs cover the genome.
	var places []placement
	var lens []int
	for _, c := range last.Contigs {
		pl, err := in.placeContig(c.Seq, c.Reads)
		if err != nil {
			rec.fail("%v", err)
			break
		}
		places = append(places, pl)
		lens = append(lens, len(c.Seq))
	}
	genome := in.genomeBases()
	covered := in.coveredBases(places)
	if float64(covered) < 0.9*float64(genome) {
		rec.fail("contigs cover %d bases, under 90%% of the %d-base genome", covered, genome)
	}
	if len(in.Planted) > 0 && last.Branch < int64(len(in.Planted)) {
		rec.fail("%d branch vertices from %d planted endpoints", last.Branch, len(in.Planted))
	}
	rec.CommBytes, rec.CommMsgs = last.CommBytes, last.CommMsgs

	if !cfg.Traced {
		// quality.Evaluate needs 17 s to index this reference; the
		// placements above are exact, so the two quality numbers are
		// computed from them.
		rec.set("setup_s", setupS+warmS)
		rec.setCosts(samples)
		rec.set("peak_rss_mb", rss)
		rec.set("completeness_pct", 100*float64(covered)/float64(genome))
		rec.set("contig_n50", float64(n50(lens)))
		return rec.finish()
	}

	span := func(name string) float64 { return median(spans[name]) }
	sum := trace.Aggregate(lastTraced.Timers)
	sent := func(name string) float64 { return float64(sum.Get(name).SumBytes) }
	rec.set("tr.reduce_s", span(spanReduce))
	rec.set("tr.iterations", float64(lastTraced.TR.Iterations))
	rec.set("tr.edges_removed", float64(lastTraced.TR.EdgesRemoved))
	rec.set("tr.products", float64(sum.Get(spanReduce).SumWork))
	rec.set("tr.comm_bytes", sent(spanReduce))
	var contigS, contigBytes float64
	for _, name := range contigSpans {
		contigS += span(name)
		contigBytes += sent(name)
	}
	rec.set("core.contig_s", contigS)
	rec.set("core.branch_removal_s", span(spanBranch))
	rec.set("core.branch_vertices", float64(lastTraced.Branch))
	rec.set("lacc.components_s", span(spanComponents))
	rec.set("partition.partition_s", span(spanPartition))
	rec.set("partition.load_imbalance", ratio(float64(lastTraced.MaxLoad)*benchP, float64(lastTraced.Assigned)))
	rec.set("core.induced_subgraph_s", span(spanInduced))
	rec.set("core.sequence_comm_s", span(spanSeqComm))
	rec.set("core.local_assembly_s", span(spanAssembly))
	rec.set("core.gather_s", span(spanGather))
	rec.set("core.contigs", float64(len(lastTraced.Contigs)))
	rec.set("core.assigned_reads", float64(lastTraced.Assigned))
	rec.set("core.comm_bytes", contigBytes)
	// Traffic of the pipeline's own (untraced, nonblocking) schedule: a
	// traced pass adds barrier messages and blocks on every transfer.
	rec.set("mpi.comm_bytes", float64(last.CommBytes))
	rec.set("mpi.comm_msgs", float64(last.CommMsgs))
	rec.set("mpi.exposed_bytes", float64(last.Exposed))
	rec.set("mpi.exposed_frac", ratio(float64(last.Exposed), float64(last.CommBytes)))
	rec.set("trace_overhead_frac", ratio(median(tracedWall), median(plainWall))-1)
	setMPIProbes(rec, sp.NewWorld)
	return rec.finish()
}
