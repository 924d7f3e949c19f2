package kmer

import (
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/spmat"
)

// ATriple is one nonzero of the |reads| × |k-mers| matrix A: read Row (a
// global read id) contains reliable k-mer column Col at Val.Pos() on strand
// Val.RC(). It is the matrix triple itself — 12 dense bytes — so the counting
// stage's output feeds spmat.FromRows, the wire codec and the checkpoint
// without a conversion.
type ATriple = spmat.Triple[Occur]

// Result is the outcome of the distributed counting stage on one rank.
type Result struct {
	K       int
	NumCols int // global number of reliable k-mer columns
	// Triples are the nonzeros of the reads this rank owns, row-grouped:
	// rows ascending, each read's columns distinct and in the order its
	// extraction found them — the order spmat.FromRows takes (it sorts A
	// once) and checkpoints preserve.
	Triples     []ATriple
	Occurrences int64 // k-mer occurrences this rank extracted (work units)
}

// CountAndBuild is the distributed k-mer counter (Algorithm 1 lines 3–4).
//
// Protocol (all collectives on the full communicator):
//  1. Every rank extracts canonical k-mers from its reads into one flat
//     occurrence stream, in read order, and routes one k-mer word per
//     (read, k-mer) occurrence to the k-mer's hash owner (Alltoallv #1). The
//     read and position of an occurrence stay in the stream: nothing else is
//     kept per routed word.
//  2. Owners count occurrences, mark reliable k-mers in [low, high], and
//     take a globally consecutive range of column ids via Exscan. Counting
//     is the two-phase Bloom-filtered scheme of count.go when low ≥ 2
//     (singletons never enter the table); low < 2 bypasses the filter so
//     every count is taken exactly. The tally records each received
//     occurrence's table slot in the reply buffer.
//  3. Owners answer every received occurrence with its column id or -1
//     (Alltoallv #2, reply shape mirrors the request shape), numbering
//     each reliable k-mer in order of first appearance, read off the slots
//     the tally recorded.
//  4. Ranks walk their stream in read order again, one cursor per owner
//     into its reply, and emit the surviving triples in that order.
//
// threads sets the intra-rank worker count for the extraction scan (step 1),
// the rank's compute-heavy loop; ≤ 1 scans serially. Routing order — and
// with it every downstream collective — is identical for any thread count,
// because every read is extracted into its own span of the stream, fixed
// before the scan from the reads' window counts, and routed in read order.
//
// Both exchanges are one mpi.IAlltoallv each, so every message honours
// mpi.MaxMessageBytes and the rank's own part is handed over, not copied.
// Both are packed in place into mpi.Bufs, so a routed word or reply is
// written once by its sender and read where it lands: in process the owner
// reads the sender's buffer itself, over TCP the frame its reader filled.
// Alltoallv #1 is posted as soon as the stream is routed; the rank sizes its
// count table while the parts are in flight (on a rank not in blocking
// mode). Counts, column ids, triples, and byte/message counters do not
// depend on the rank's mode.
func CountAndBuild(store *fasta.DistStore, k int, low, high int32, threads int) *Result {
	c := store.Comm
	p := c.Size()
	checkK(k)

	// 1. Extract (in parallel, each read into its span of the stream) and
	// route (serially, in read order — the wire layout is deterministic).
	pool := par.NewPool(threads, func(int) *ExtractScratch { return new(ExtractScratch) })
	pool.SetTrace(c.Lane(), "kmer.extract")
	s := extract(pool, store.Seqs, k)
	sendKmers := s.route(p)
	var occ int64
	for _, part := range sendKmers {
		occ += int64(len(part.Elems()))
	}
	req := mpi.IAlltoallv(c, sendKmers)

	// 2. Count and select on owners. Phase 1 (admission) observes the local
	// part first, then each remote part in rank order; phase 2 (the exact
	// tally) runs over the parts in rank order, so stored counts never depend
	// on the arrival schedule. The rank's own outgoing total is the sizing
	// proxy for what it receives: the k-mer hash spreads occurrences
	// uniformly across owners.
	cnt := newCounter(low, int(occ))
	recvKmers := req.WaitValue()
	cnt.observe(recvKmers[c.Rank()])
	for src, part := range recvKmers {
		if src != c.Rank() {
			cnt.observe(part)
		}
	}
	reply := make([]mpi.Buf[int32], p)
	for r, part := range recvKmers {
		reply[r] = mpi.NewBuf[int32](len(part))
		cnt.tally(part, reply[r].Elems())
	}
	nLocal := cnt.table.MarkReliable(low, high)
	if reg := c.Metrics(); reg != nil {
		// All values here are schedule-invariant except table_entries, whose
		// admitted set may differ on singletons between observation orders
		// (see count.go); the manifest's determinism gate therefore compares
		// counters, not gauges.
		reg.Counter("kmer.occurrences").Add(occ)
		reg.Counter("kmer.reliable").Add(int64(nLocal))
		reg.Gauge("kmer.table_entries").Set(int64(cnt.table.Len()))
		if cnt.bloom != nil {
			reg.Gauge("kmer.bloom_bits_set").Set(cnt.bloom.bitsSet())
			reg.Gauge("kmer.bloom_bits").Set(int64(len(cnt.bloom.words) * 64))
		}
	}
	offset := mpi.Exscan(c, nLocal, func(a, b int) int { return a + b })
	total := mpi.Allreduce(c, nLocal, func(a, b int) int { return a + b })

	// 3. Reply with column ids, mirroring the request shape — including
	// parts whose entries are all -1 (no reliable k-mer matched). The shape
	// mirror is load-bearing: the requester matches replies positionally
	// against its own stream, so compacting all-miss parts would need an
	// extra index channel that costs more than the -1 words it saves, and
	// would change the wire traffic between runs with different [low, high].
	// TestReplyShapeMirrorsRequests pins this: both comm modes produce the
	// same reply shape even when every part is all-miss.
	//
	// The count table's values are the column ids, and a reliable k-mer is
	// numbered at its first occurrence: the owner's ids, its Exscan range,
	// follow first appearance in rank order, then part order — together
	// global read order — then extraction order. Neighbouring k-mers of one
	// read mostly get neighbouring ids, or met each other first along an
	// earlier read that overlaps it, so the multiply's consecutive B entries
	// open neighbouring runs of the A panel (DESIGN.md §8). Nothing
	// downstream depends on which id a k-mer gets.
	next := int32(offset)
	for _, slots := range reply {
		cnt.table.number(slots.Elems(), &next)
	}
	cols := mpi.IAlltoallv(c, reply).WaitValue()

	// 4. Assemble the surviving triples, row-grouped in stream order.
	triples := s.emit(store.Lo, cols)
	return &Result{K: k, NumCols: total, Triples: triples, Occurrences: occ}
}

// stream is one rank's extracted k-mer occurrences, flat and in read order:
// local read i's canonical k-mers, in extraction order, are
// kms[start[i]:end[i]], and occ holds their positions and strands beside
// them. start comes from the reads' window counts before the scan, so the
// pool's workers write every read in place; a read keeps end[i]−start[i] of
// its windows after invalid bases and duplicates are dropped, and the rest of
// its span is never read.
type stream struct {
	kms   []uint64
	occ   []Occur
	start []int // by read, plus one past the last span
	end   []int
}

// extract scans seqs into a stream, each read by one of pool's workers.
func extract(pool *par.Pool[*ExtractScratch], seqs [][]byte, k int) *stream {
	s := &stream{start: make([]int, len(seqs)+1), end: make([]int, len(seqs))}
	for i, seq := range seqs {
		s.start[i+1] = s.start[i] + windows(len(seq), k)
	}
	s.kms = make([]uint64, s.start[len(seqs)])
	s.occ = make([]Occur, s.start[len(seqs)])
	par.ForEach(pool, len(seqs), func(sc *ExtractScratch, i int) {
		lo, hi := s.start[i], s.start[i+1]
		s.end[i] = lo + sc.scan(seqs[i], k, s.kms[lo:hi], s.occ[lo:hi])
	})
	return s
}

// route packs the stream's k-mers by owner, in read order, into send buffers
// sized by a counting pre-pass; part o is what owner o is sent.
func (s *stream) route(p int) []mpi.Buf[uint64] {
	counts := make([]int, p)
	for i, end := range s.end {
		for _, km := range s.kms[s.start[i]:end] {
			counts[Owner(Kmer(km), p)]++
		}
	}
	parts := make([]mpi.Buf[uint64], p)
	fill := make([][]uint64, p)
	for o, n := range counts {
		parts[o] = mpi.NewBuf[uint64](n)
		fill[o] = parts[o].Elems()[:0]
	}
	for i, end := range s.end {
		for _, km := range s.kms[s.start[i]:end] {
			o := Owner(Kmer(km), p)
			fill[o] = append(fill[o], km)
		}
	}
	return parts
}

// emit builds the triples of A of the stream's reads (global ids from lo)
// from the owners' replies cols: cols[o] answers, in order, the occurrences
// route sent owner o, each with its column id or -1 for an unreliable k-mer.
// A walk of the stream in read order, one cursor per owner, matches every
// occurrence with its answer and appends the survivors to one exact-size
// buffer, so the triples leave row-grouped: rows ascending, each read's
// columns in the order its scan found them. A read holds a k-mer at most once
// (the scan deduplicates), so its columns are distinct. Nothing here sorts:
// spmat.FromRows puts A in order once, where it is distributed.
func (s *stream) emit(lo int, cols [][]int32) []ATriple {
	n := 0
	for _, part := range cols {
		for _, col := range part {
			if col >= 0 {
				n++
			}
		}
	}
	out := make([]ATriple, 0, n)
	cursor := make([]int, len(cols))
	for i, end := range s.end {
		row := int32(lo + i)
		for j := s.start[i]; j < end; j++ {
			o := Owner(Kmer(s.kms[j]), len(cols))
			if col := cols[o][cursor[o]]; col >= 0 {
				out = append(out, ATriple{Row: row, Col: col, Val: s.occ[j]})
			}
			cursor[o]++
		}
	}
	return out
}
