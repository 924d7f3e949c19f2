// Package core implements the paper's primary contribution: the distributed
// contig generation of Algorithm 2.
//
//	L    ← BranchRemoval(S)          (§4.2: mask vertices with degree ≥ 3)
//	v    ← ConnectedComponent(L)     (§4.2: FastSV over the linear components)
//	p    ← GreedyPartitioning(v, P)  (§4.3: LPT multiway number partitioning)
//	P    ← InducedSubgraph(L, p)     (§4.3: Figure 2 communication + all-to-all)
//	cset ← LocalAssembly(P, reads)   (§4.4: per-rank CSC linear walks)
//
// Every step is a collective over the √P × √P grid; after the induced
// subgraph and read-sequence communication, local assembly runs with no
// further communication — the localization property the paper credits for
// ExtractContig never exceeding 5% of total runtime.
package core

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"repro/internal/bidir"
	"repro/internal/dna"
	"repro/internal/fasta"
	"repro/internal/lacc"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/spmat"
	"repro/internal/trace"
)

// Contig is one assembled chain of reads.
type Contig struct {
	Seq      []byte
	Reads    []int32 // global read ids in walk order
	Circular bool    // true if the chain closed on itself (no root vertices)
}

// WriteContigs serializes contigs as FASTA records named contig_00000…,
// each id carrying the sequence length, read count and circularity — the
// one naming `elba -out` and elbad's GET /jobs/{id}/contigs share.
func WriteContigs(w io.Writer, contigs []Contig) error {
	recs := make([]fasta.Record, len(contigs))
	for i, c := range contigs {
		circ := ""
		if c.Circular {
			circ = " circular"
		}
		recs[i] = fasta.Record{
			ID:  fmt.Sprintf("contig_%05d len=%d reads=%d%s", i, len(c.Seq), len(c.Reads), circ),
			Seq: c.Seq,
		}
	}
	return fasta.Write(w, recs, 80)
}

// Result is the outcome of contig generation on one rank.
type Result struct {
	// Contigs assembled locally on this rank (the paper's cset is the union
	// over ranks).
	Contigs []Contig
	// Global statistics (replicated on every rank).
	NumContigs     int64 // components with ≥ 2 reads
	BranchVertices int64 // vertices masked by branch removal
	AssignedReads  int64 // reads redistributed for local assembly
	MaxLoad        int64 // largest per-rank read load after LPT
	MinLoad        int64 // smallest per-rank read load after LPT
}

// Algorithm 2's steps as trace sub-stages, nested inside the pipeline's
// ExtractContig row: wall time and traffic per step, and each step's own
// work units (edges, vertices, sequence bytes or bases).
const (
	SubStageBranchRemoval      = "CG:BranchRemoval"
	SubStageConnectedComponent = "CG:ConnectedComponent"
	SubStagePartitioning       = "CG:Partitioning"
	SubStageInducedSubgraph    = "CG:InducedSubgraph"
	SubStageSequenceComm       = "CG:SequenceComm"
	SubStageLocalAssembly      = "CG:LocalAssembly"
)

// ContigGeneration runs Algorithm 2 on the string matrix s. Sub-stage
// timings land in tm under the SubStage* rows. The paper's contig-phase
// breakdown has the induced subgraph step dominating with 65–85%; here the
// step routes only edge triples, and the connected components are the
// largest step. Of core.contig_s on the benchmark's layout-inproc workload
// (10 Mb layout problem, P = 4, 2 vCPUs), the FastSV components are 39–41%,
// the read-sequence exchange 23–24% (each rank's own reads stay home;
// DESIGN.md §11 has its per-step copy budget), local assembly 16–19% and the
// induced subgraph 11–12%.
// packSeqs enables the 2-bit sequence-communication encoding (§7 future
// work); false matches the paper's raw char-buffer protocol.
//
// The read-sequence exchange — the dominant traffic of the phase — is
// started as soon as the assignment vector exists and stays posted while the
// induced subgraph is routed, re-indexed, and DFS-walked into chains; only
// the final chain-to-sequence assembly waits for it. async = false puts the
// rank in blocking mode (mpi.Comm.SetBlocking) for the call: the same
// schedule, with every transfer inside its Wait. The contig set and all
// byte/message counters are identical in both modes.
func ContigGeneration(s *spmat.Dist[bidir.Edge], store *fasta.DistStore, tm *trace.Timers, packSeqs, async bool) *Result {
	g := s.G
	defer g.Comm.SetBlocking(g.Comm.SetBlocking(!async))
	res := &Result{}

	// --- BranchRemoval (Algorithm 2 line 2) ---
	var l *spmat.Dist[bidir.Edge]
	var deg *spmat.DistVec[int32]
	tm.Stage(SubStageBranchRemoval, g.Comm, func() {
		l, deg, res.BranchVertices = BranchRemoval(s)
	})
	tm.AddWork(SubStageBranchRemoval, int64(s.Local.Nnz()))

	// --- ConnectedComponent (line 3) ---
	var labels *spmat.DistVec[int32]
	tm.Stage(SubStageConnectedComponent, g.Comm, func() {
		labels = lacc.Components(l)
	})
	tm.AddWork(SubStageConnectedComponent, int64(l.Local.Nnz()))

	// --- GreedyPartitioning (line 4) ---
	var assign *spmat.DistVec[int32]
	tm.Stage(SubStagePartitioning, g.Comm, func() {
		assign = PartitionContigs(labels, deg, res)
	})
	tm.AddWork(SubStagePartitioning, int64(len(assign.Local)))

	// --- Read sequence communication, start (§4.3) ---
	// Posted before the induced subgraph so the sequence bytes travel while
	// edges are routed and walked; Stage accumulates, so the finish below
	// lands under the same SubStageSequenceComm row.
	var seqComm *SeqCommHandle
	tm.Stage(SubStageSequenceComm, g.Comm, func() {
		seqComm = StartCommunicateSequences(store, assign, packSeqs)
	})

	// --- InducedSubgraph (line 5) ---
	var local *LocalGraph
	tm.Stage(SubStageInducedSubgraph, g.Comm, func() {
		local = inducedSubgraph(l, assign)
	})
	tm.AddWork(SubStageInducedSubgraph, int64(len(local.CSC.IR)))

	// --- LocalAssembly traversal (line 6, §4.4): the DFS walks need only
	// the re-indexed graph, so they run before the sequence exchange is
	// collected. ---
	var chains []chain
	tm.Stage(SubStageLocalAssembly, g.Comm, func() {
		chains = traverseChains(local)
	})

	// --- Read sequence communication, completion ---
	var seqs map[int32][]byte
	tm.Stage(SubStageSequenceComm, g.Comm, func() {
		seqs = seqComm.Finish()
	})
	var seqBytes int64
	for _, sq := range seqs {
		seqBytes += int64(len(sq))
	}
	tm.AddWork(SubStageSequenceComm, seqBytes)

	// --- LocalAssembly sequence concatenation ---
	tm.Stage(SubStageLocalAssembly, g.Comm, func() {
		res.Contigs = assembleChains(local, seqs, chains)
	})
	var asmBases int64
	for _, c := range res.Contigs {
		asmBases += int64(len(c.Seq))
	}
	tm.AddWork(SubStageLocalAssembly, asmBases)
	loads := mpi.Allgather(g.Comm, int64(len(local.Globals)))
	res.MaxLoad, res.MinLoad = slices.Max(loads), slices.Min(loads)
	return res
}

// BranchRemoval computes vertex degrees with a row-dimension summation
// reduction, extracts the branch vector b of vertices with degree ≥ 3, and
// clears their rows and columns without re-indexing the matrix (§4.2). It
// returns the linear-chain matrix L, the post-masking degree vector, and the
// global branch count.
func BranchRemoval(s *spmat.Dist[bidir.Edge]) (*spmat.Dist[bidir.Edge], *spmat.DistVec[int32], int64) {
	deg := s.RowDegrees()
	var branchLocal []int32
	for i, d := range deg.Local {
		if d >= 3 {
			branchLocal = append(branchLocal, deg.Lo+int32(i))
		}
	}
	// The branch vector is replicated so every rank can mask its block
	// (ascending: the vector blocks ascend with the rank).
	branch, _ := mpi.AllgathervFlat(s.G.Comm, branchLocal)
	l := s.Clone()
	l.MaskRowsCols(branch)
	deg2 := l.RowDegrees()
	return l, deg2, int64(len(branch))
}

// PartitionContigs estimates contig sizes (vertices per component), gathers
// them on rank 0, runs LPT, and broadcasts the contig→processor assignment;
// the result is the distributed vector v of §4.3 mapping each vertex to its
// owner processor (or -1 for vertices in no contig: branch-masked, isolated,
// or in components of fewer than 2 reads).
func PartitionContigs(labels *spmat.DistVec[int32], deg *spmat.DistVec[int32], res *Result) *spmat.DistVec[int32] {
	g := labels.G

	// Local size estimate per component label, counting only vertices that
	// survived masking (degree ≥ 1): the sorted labels, run-length coded.
	live := make([]int32, 0, len(labels.Local))
	for i, lab := range labels.Local {
		if deg.Local[i] >= 1 {
			live = append(live, lab)
		}
	}
	slices.Sort(live)
	var labs []int32
	var counts []int64
	for i, lab := range live {
		if i == 0 || lab != live[i-1] {
			labs, counts = append(labs, lab), append(counts, 0)
		}
		counts[len(counts)-1]++
	}
	// Each label's counts are summed on the rank owning the label's index
	// (labels are vertex ids, so ownership follows the vector distribution).
	size := spmat.NewDistVec[int64](g, labels.N)
	spmat.ScatterFold(size, labs, counts, func(a, b int64) int64 { return a + b })
	// Contigs are components with at least 2 reads (§4.4), ascending by label.
	type lc struct {
		Label int32
		Count int64
	}
	var mine []lc
	for i, sz := range size.Local {
		if sz >= 2 {
			mine = append(mine, lc{Label: size.Lo + int32(i), Count: sz})
		}
	}

	// Gather contig sizes on a single processor and run LPT there (§4.3:
	// "we collect the global information about contig lengths in a single
	// processor ... to avoid the unnecessary communication of small
	// messages"). The blocks ascend with the rank, so the gathered list is
	// ascending by label.
	gathered := mpi.Gatherv(g.Comm, 0, mine)
	type asg struct {
		Label int32
		Proc  int32
	}
	var table []asg
	if g.Comm.Rank() == 0 {
		all := slices.Concat(gathered...)
		sizes := make([]int64, len(all))
		for i, e := range all {
			sizes[i] = e.Count
		}
		procOf, _ := partition.LPT(sizes, g.Comm.Size())
		table = make([]asg, len(all))
		for i, e := range all {
			table[i] = asg{Label: e.Label, Proc: procOf[i]}
		}
	}
	table = mpi.Bcast(g.Comm, 0, table)
	res.NumContigs = int64(len(table))

	procOf := make(map[int32]int32, len(table))
	for _, e := range table {
		procOf[e.Label] = e.Proc
	}
	// Build the assignment vector block.
	assign := spmat.NewDistVec[int32](g, labels.N)
	var assigned int64
	for i := range assign.Local {
		assign.Local[i] = -1
		if deg.Local[i] >= 1 {
			if proc, ok := procOf[labels.Local[i]]; ok {
				assign.Local[i] = proc
				assigned++
			}
		}
	}
	res.AssignedReads = mpi.Allreduce(g.Comm, assigned, func(a, b int64) int64 { return a + b })
	return assign
}

// LocalGraph is the re-indexed induced subgraph a rank assembles locally:
// a CSC whose column j holds the outgoing edges of local vertex j, plus the
// map back to global read ids (§4.3: "while we re-index the local matrix to
// fit its new, smaller size, we also keep a map of the original global
// vertex indices").
type LocalGraph struct {
	Globals []int32 // local index → global read id (ascending)
	CSC     spmat.CSC[bidir.Edge]
}

// InducedSubgraph redistributes the edges of l so each rank receives exactly
// the edges of the contigs assigned to it (§4.3, Figure 2): the assignment
// vector entries for local rows arrive via an Allgatherv on the row
// communicator; entries for local columns via the point-to-point exchange
// with the transposed rank; then a custom all-to-all routes each triple
// (u, v, L(u,v)) with v[u] = v[v] = d to processor d. As a step called on its
// own it runs with the rank in blocking mode, so its traffic reads as
// exposed whatever the caller's mode.
func InducedSubgraph(l *spmat.Dist[bidir.Edge], assign *spmat.DistVec[int32]) *LocalGraph {
	defer l.G.Comm.SetBlocking(l.G.Comm.SetBlocking(true))
	return inducedSubgraph(l, assign)
}

// inducedSubgraph is the step in the rank's current mode. The all-to-all's
// request is collected immediately (re-indexing needs every edge), so the
// gain here is bounded — remote transfers proceed while this rank issues its
// own sends; the phase-level overlap comes from the sequence exchange that
// ContigGeneration keeps posted across this whole step.
func inducedSubgraph(l *spmat.Dist[bidir.Edge], assign *spmat.DistVec[int32]) *LocalGraph {
	g := l.G
	p := g.Comm.Size()
	rowAsg, colAsg := assign.RowColGather()
	dest := func(t spmat.Triple[bidir.Edge]) int32 {
		if du := rowAsg[t.Row-l.RowLo]; du >= 0 && du == colAsg[t.Col-l.ColLo] {
			return du
		}
		return -1
	}
	counts := make([]int, p)
	for _, t := range l.Local.Ts {
		if d := dest(t); d >= 0 {
			counts[d]++
		}
	}
	send := make([]mpi.Buf[spmat.Triple[bidir.Edge]], p)
	fill := make([][]spmat.Triple[bidir.Edge], p)
	for d, n := range counts {
		send[d] = mpi.NewBuf[spmat.Triple[bidir.Edge]](n)
		fill[d] = send[d].Elems()[:0]
	}
	for _, t := range l.Local.Ts {
		if d := dest(t); d >= 0 {
			fill[d] = append(fill[d], t)
		}
	}
	parts := mpi.IAlltoallv(g.Comm, send).WaitValue()

	// Re-index: collect the vertex set, sort ascending for determinism.
	vset := map[int32]struct{}{}
	var edges []spmat.Triple[bidir.Edge]
	for _, part := range parts {
		for _, t := range part {
			vset[t.Row] = struct{}{}
			vset[t.Col] = struct{}{}
			edges = append(edges, t)
		}
	}
	globals := make([]int32, 0, len(vset))
	for v := range vset {
		globals = append(globals, v)
	}
	slices.Sort(globals)
	localIdx := make(map[int32]int32, len(globals))
	for i, v := range globals {
		localIdx[v] = int32(i)
	}
	// Local triples with column = SOURCE vertex so the CSC walk reads
	// outgoing edges: edge (u → w, e) is stored at (row lw, col lu).
	ts := make([]spmat.Triple[bidir.Edge], len(edges))
	for i, t := range edges {
		ts[i] = spmat.Triple[bidir.Edge]{Row: localIdx[t.Col], Col: localIdx[t.Row], Val: t.Val}
	}
	n := int32(len(globals))
	// Local assembly walks plain CSC for O(1) column indexing (§4.4).
	return &LocalGraph{Globals: globals, CSC: spmat.NewCOO(n, n, ts, nil).ToCSC()}
}

// CommunicateSequences routes every assigned read's bytes to its owner
// processor (§4.3 "Read Sequence Communication"): reads are packed into
// per-destination char buffers and exchanged with an all-to-all that chunks
// each message to respect the MPI 2³¹−1 count limit. With packed=true the
// buffers travel 2-bit-encoded (quarter the volume), falling back to raw
// bytes if any local read has a non-ACGT base. It is the exchange started and
// finished in one step, with the rank in blocking mode for its duration.
func CommunicateSequences(store *fasta.DistStore, assign *spmat.DistVec[int32], packed bool) map[int32][]byte {
	c := assign.G.Comm
	defer c.SetBlocking(c.SetBlocking(true))
	return StartCommunicateSequences(store, assign, packed).Finish()
}

// SeqCommHandle is a posted read-sequence exchange: every send has been
// issued (buffered, so they are already complete) and the receives are the
// requests it holds, draining while the caller computes unless the rank is
// blocking; Finish collects them and assembles the result.
type SeqCommHandle struct {
	store   *fasta.DistStore
	self    int // the rank's own index among the sources
	idsReq  *mpi.AlltoallvRequest[int32]
	packReq *mpi.AlltoallvRequest[uint64] // 2-bit protocol, agreed by all ranks
	rawReq  *mpi.AlltoallvRequest[byte]   // raw protocol
}

// StartCommunicateSequences posts the full sequence exchange and returns —
// the transfers complete while the caller routes edges and walks chains.
// Every per-destination buffer — read ids, 2-bit words or raw bytes, each an
// mpi.Buf — is sized from the replicated length table before a base is
// packed (diBELLA's order), so each base assigned to another rank is copied
// once on the way out and none on the way in. The rank's own assigned reads
// stay home: its own part carries their ids but no base, and Finish keys
// them to the store's slices, in either protocol.
func StartCommunicateSequences(store *fasta.DistStore, assign *spmat.DistVec[int32], packed bool) *SeqCommHandle {
	g := assign.G
	p := g.Comm.Size()
	self := g.Comm.Rank()
	h := &SeqCommHandle{store: store, self: self}
	reads := make([]int, p)
	bases := make([]int, p)
	for i, proc := range assign.Local {
		if proc >= 0 {
			reads[proc]++
			bases[proc] += store.Len(int(assign.Lo) + i)
		}
	}
	ids := make([]mpi.Buf[int32], p)
	own := make([][]int32, p) // ids[r]'s elements, read until ids is given away
	for r := range ids {
		ids[r] = mpi.NewBuf[int32](reads[r])
		own[r] = ids[r].Elems()[:0]
	}
	for i, proc := range assign.Local {
		if proc >= 0 {
			own[proc] = append(own[proc], assign.Lo+int32(i))
		}
	}

	// The sequences are packed from own before ids is posted.
	if packed {
		// All ranks must agree on the encoding: fall back to raw everywhere
		// if any rank holds a non-ACGT read, its own assigned reads included,
		// which are tested but not packed. The agreement allreduce is tiny
		// and blocking.
		okLocal := true
		for _, gid := range own[self] {
			okLocal = okLocal && dna.Valid(store.Get(int(gid)))
		}
		words := make([]mpi.Buf[uint64], p)
		for r := 0; r < p && okLocal; r++ {
			if r == self {
				words[r] = mpi.NewBuf[uint64](0)
				continue
			}
			seqs := make([][]byte, len(own[r]))
			lens := make([]int, len(own[r]))
			for i, gid := range own[r] {
				seqs[i] = store.Get(int(gid))
				lens[i] = len(seqs[i])
			}
			words[r] = mpi.NewBuf[uint64](dna.PackedWords(lens))
			okLocal = dna.PackAllInto(words[r].Elems(), seqs)
		}
		if mpi.Allreduce(g.Comm, okLocal, func(a, b bool) bool { return a && b }) {
			h.idsReq = mpi.IAlltoallv(g.Comm, ids)
			h.packReq = mpi.IAlltoallv(g.Comm, words)
			return h
		}
	}
	// Raw protocol: each read is copied once, straight into the frame that
	// carries it.
	bufs := make([]mpi.ByteBuf, p)
	for r := range bufs {
		if r == self {
			bufs[r] = mpi.NewByteBuf(0)
			continue
		}
		bufs[r] = mpi.NewByteBuf(bases[r])
		dst := bufs[r].Elems()
		for _, gid := range own[r] {
			dst = dst[copy(dst, store.Get(int(gid))):]
		}
	}
	h.idsReq = mpi.IAlltoallv(g.Comm, ids)
	h.rawReq = mpi.IAlltoallv(g.Comm, bufs)
	return h
}

// Finish waits for the posted exchanges and returns the received sequences
// keyed by global read id.
func (h *SeqCommHandle) Finish() map[int32][]byte {
	ids := h.idsReq.WaitValue()
	if h.packReq != nil {
		return keyReceived(h.store, h.self, ids, h.packReq.WaitValue(), nil)
	}
	return keyReceived(h.store, h.self, ids, nil, h.rawReq.WaitValue())
}

// keyReceived keys what every source rank sent — 2-bit words when words is
// non-nil, raw buffers otherwise — by the global read ids it announced. The
// raw protocol's sequences are slices of the received buffers (one per source
// rank), not copies. Source self is the rank itself, whose reads are the
// store's own slices and whose part carries no base (the 2-bit protocol's
// unpacking upper-cases, so a home read with a lower-case base is the one
// copied). What every other source sent must be exactly what the replicated
// lengths of its ids demand; anything else panics naming the source rank and
// the ids.
func keyReceived(store *fasta.DistStore, self int, ids [][]int32, words [][]uint64, bufs [][]byte) map[int32][]byte {
	total := 0
	for _, part := range ids {
		total += len(part)
	}
	out := make(map[int32][]byte, total)
	for _, gid := range ids[self] {
		seq := store.Get(int(gid))
		seq = seq[:len(seq):len(seq)]
		if words != nil && bytes.ContainsAny(seq, "acgt") {
			seq = bytes.ToUpper(seq)
		}
		out[gid] = seq
	}
	if words != nil {
		for r, part := range ids {
			if r == self {
				continue
			}
			lens := make([]int, len(part))
			for i, gid := range part {
				lens[i] = store.Len(int(gid))
			}
			checkReceived(r, part, "2-bit words", len(words[r]), dna.PackedWords(lens))
			for i, seq := range dna.UnpackAll(words[r], lens) {
				out[part[i]] = seq
			}
		}
		return out
	}
	for r, part := range ids {
		if r == self {
			continue
		}
		want := 0
		for _, gid := range part {
			want += store.Len(int(gid))
		}
		checkReceived(r, part, "sequence bytes", len(bufs[r]), want)
		off := 0
		for _, gid := range part {
			ln := store.Len(int(gid))
			out[gid] = bufs[r][off : off+ln : off+ln]
			off += ln
		}
	}
	return out
}

// checkReceived panics unless source rank src sent exactly the want units
// the lengths of its announced read ids add up to.
func checkReceived(src int, ids []int32, unit string, got, want int) {
	if got == want {
		return
	}
	span := "no reads"
	if len(ids) > 0 {
		span = fmt.Sprintf("%d reads, ids %d…%d", len(ids), ids[0], ids[len(ids)-1])
	}
	panic(fmt.Sprintf("core: rank %d sent %d %s for %s, whose lengths demand %d", src, got, unit, span, want))
}

// LocalAssembly walks every linear chain of the local graph and concatenates
// the read subsequences into contigs (§4.4): scan for unvisited root
// vertices (degree 1), walk to the opposite root marking vertices visited,
// and join l_r[α:pre(e₀)] ⊕ l_c₁[post(e₀):pre(e₁)] ⊕ … with descending
// slices meaning reverse complement. Cycles left by root walks (circular
// chains) are walked from their smallest vertex. No communication happens
// here — the contigs' reads are all local by construction.
//
// Internally it is two phases — traverseChains needs only the graph,
// assembleChains additionally needs the sequences — so ContigGeneration can
// run the walks while the sequence exchange is still in flight.
func LocalAssembly(lg *LocalGraph, seqs map[int32][]byte) []Contig {
	return assembleChains(lg, seqs, traverseChains(lg))
}

// chain is one traversed read chain, pending sequence assembly.
type chain struct {
	steps    []step
	circular bool
}

// traverseChains runs every DFS walk of §4.4 — root-to-root first, then the
// cycles the root walks left — returning the chains in deterministic
// (ascending root vertex) order. No sequences are touched.
func traverseChains(lg *LocalGraph) []chain {
	n := lg.CSC.NC
	visited := make([]bool, n)
	var chains []chain

	// Root-to-root walks.
	for v := int32(0); v < n; v++ {
		if !visited[v] && lg.CSC.ColDegree(v) == 1 {
			chains = append(chains, walk(lg, v, visited, false))
		}
	}
	// Remaining unvisited vertices with edges form cycles.
	for v := int32(0); v < n; v++ {
		if !visited[v] && lg.CSC.ColDegree(v) > 0 {
			chains = append(chains, walk(lg, v, visited, true))
		}
	}
	return chains
}

// assembleChains concatenates every traversed chain into contigs, cutting at
// bidirected validity violations.
func assembleChains(lg *LocalGraph, seqs map[int32][]byte, chains []chain) []Contig {
	var contigs []Contig
	for _, ch := range chains {
		contigs = append(contigs, assembleSegments(lg, seqs, ch.steps, ch.circular)...)
	}
	return contigs
}

// step is one traversal move: the edge cur→next.
type step struct {
	vertex int32 // next (local index)
	edge   bidir.Edge
}

// walk traverses the chain starting at root, marking vertices visited.
func walk(lg *LocalGraph, root int32, visited []bool, circular bool) chain {
	csc := lg.CSC
	visited[root] = true
	steps := []step{{vertex: root}}
	cur := root
	for {
		// Pick the unvisited neighbor; for the first step of a cycle walk
		// both neighbors are unvisited — take the smaller global id.
		next := int32(-1)
		var e bidir.Edge
		for ptr := csc.JC[cur]; ptr < csc.JC[cur+1]; ptr++ {
			cand := csc.IR[ptr]
			if visited[cand] {
				continue
			}
			if next == -1 || lg.Globals[cand] < lg.Globals[next] {
				next = cand
				e = csc.V[ptr]
			}
		}
		if next == -1 {
			break
		}
		visited[next] = true
		steps = append(steps, step{vertex: next, edge: e})
		cur = next
	}
	// Valid-walk violations (a vertex entered and exited through the same
	// end, possible with noisy alignments) are cut later by assembleSegments.
	return chain{steps: steps, circular: circular}
}

// assembleSegments splits the chain at valid-walk violations and builds a
// contig from every segment with ≥ 2 reads.
func assembleSegments(lg *LocalGraph, seqs map[int32][]byte, steps []step, circular bool) []Contig {
	var out []Contig
	segStart := 0
	for i := 2; i < len(steps); i++ {
		// Edge i-1 enters steps[i-1].vertex; edge i leaves it.
		if steps[i].edge.SrcBit() == steps[i-1].edge.DstBit() {
			if c, ok := assembleChain(lg, seqs, steps[segStart:i], circular && segStart == 0 && i == len(steps)); ok {
				out = append(out, c)
			}
			segStart = i - 1 // the cut vertex starts the next segment
		}
	}
	if c, ok := assembleChain(lg, seqs, steps[segStart:], circular && segStart == 0); ok {
		out = append(out, c)
	}
	return out
}

// assembleChain concatenates one valid chain into a contig. The contig's
// exact length is the sum of its pieces, so the pieces are laid out first and
// the sequence is written once into a buffer of that size.
func assembleChain(lg *LocalGraph, seqs map[int32][]byte, steps []step, circular bool) (Contig, bool) {
	q := len(steps)
	if q < 2 {
		return Contig{}, false
	}
	type piece struct {
		l        []byte
		from, to int32 // inclusive, in walk direction
		fwd      bool
	}
	reads := make([]int32, q)
	pieces := make([]piece, q)
	total := 0
	for i, st := range steps {
		gid := lg.Globals[st.vertex]
		reads[i] = gid
		l, ok := seqs[gid]
		if !ok {
			panic(fmt.Sprintf("core: read %d missing from local sequence store", gid))
		}
		L := int32(len(l))
		pc := piece{l: l}
		switch {
		case i == 0:
			pc.fwd = steps[1].edge.SrcForward()
			pc.from, pc.to = 0, steps[1].edge.Pre
			if !pc.fwd {
				pc.from = L - 1
			}
		case i < q-1:
			// Middle read: from the first overlap base with the previous
			// read to the last base before the overlap with the next;
			// walk order (ascending/descending) is implied by fwd.
			pc.fwd = steps[i].edge.DstForward()
			pc.from, pc.to = steps[i].edge.Post, steps[i+1].edge.Pre
		default:
			pc.fwd = steps[i].edge.DstForward()
			pc.from, pc.to = steps[i].edge.Post, 0
			if pc.fwd {
				pc.to = L - 1
			}
		}
		lo, hi := clampPiece(L, pc.from, pc.to, pc.fwd)
		total += max(0, int(hi-lo)+1)
		pieces[i] = pc
	}
	seq := make([]byte, 0, total)
	for _, pc := range pieces {
		seq = appendPiece(seq, pc.l, pc.from, pc.to, pc.fwd)
	}
	return Contig{Seq: seq, Reads: reads, Circular: circular}, true
}

// clampPiece turns the inclusive walk-ordered bounds from..to on a read of
// length n into the ascending index range lo..hi they cover, clamped to the
// read; lo > hi means no base.
func clampPiece(n, from, to int32, fwd bool) (lo, hi int32) {
	if !fwd {
		from, to = to, from
	}
	return max(from, 0), min(to, n-1)
}

// appendPiece appends the inclusive walk-ordered slice l[from..to]: forward
// slices ascend and copy in bulk; reverse slices descend and are
// complemented through the dna package's table (the paper's l[j:i]
// notation).
func appendPiece(dst, l []byte, from, to int32, fwd bool) []byte {
	lo, hi := clampPiece(int32(len(l)), from, to, fwd)
	if fwd {
		if lo > hi {
			return dst
		}
		return append(dst, l[lo:hi+1]...)
	}
	for i := hi; i >= lo; i-- {
		dst = append(dst, dna.Complement(l[i]))
	}
	return dst
}
