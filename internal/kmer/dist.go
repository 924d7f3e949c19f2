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
// stage's output feeds spmat.FromRowMajor, the wire codec and the checkpoint
// without a conversion.
type ATriple = spmat.Triple[Occur]

// Result is the outcome of the distributed counting stage on one rank.
type Result struct {
	K       int
	NumCols int // global number of reliable k-mer columns
	// Triples are the nonzeros of the reads this rank owns, strictly
	// row-major (Row, then Col) — the order spmat.FromRowMajor requires and
	// checkpoints preserve.
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
//     into its reply, and emit the surviving triples row-major.
//
// threads sets the intra-rank worker count for the extraction scan (step 1),
// the rank's compute-heavy loop; ≤ 1 scans serially. Routing order — and
// with it every downstream collective — is identical for any thread count,
// because every read is extracted into its own span of the stream, fixed
// before the scan from the reads' window counts, and routed in read order.
//
// Both exchanges are one mpi.IAlltoallv each, so every message honours
// mpi.MaxMessageBytes and the rank's own part is handed over, not copied.
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
		occ += int64(len(part))
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
	reply := make([][]int32, p)
	for r, part := range recvKmers {
		reply[r] = make([]int32, len(part))
		cnt.tally(part, reply[r])
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
		cnt.table.number(slots, &next)
	}
	cols := mpi.IAlltoallv(c, reply).WaitValue()

	// 4. Assemble the surviving triples, row-major.
	triples := s.emitRowMajor(store.Lo, cols)
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

// route packs the stream's k-mers by owner, in read order, into one buffer
// sized by a counting pre-pass (the packing never append-grows); part o is
// what owner o is sent.
func (s *stream) route(p int) [][]uint64 {
	bounds := make([]int, p+1) // by owner, shifted one up
	for i, end := range s.end {
		for _, km := range s.kms[s.start[i]:end] {
			bounds[Owner(Kmer(km), p)+1]++
		}
	}
	for o := 1; o <= p; o++ {
		bounds[o] += bounds[o-1]
	}
	buf := make([]uint64, bounds[p])
	parts := make([][]uint64, p)
	for o := range parts {
		parts[o] = buf[bounds[o]:bounds[o]:bounds[o+1]]
	}
	for i, end := range s.end {
		for _, km := range s.kms[s.start[i]:end] {
			o := Owner(Kmer(km), p)
			parts[o] = append(parts[o], km)
		}
	}
	return parts
}

// emitRowMajor builds the triples of A of the stream's reads (global ids from
// lo) from the owners' replies cols: cols[o] answers, in order, the
// occurrences route sent owner o, each with its column id or -1 for an
// unreliable k-mer. A walk of the stream in read order, one cursor per owner,
// matches every occurrence with its answer. The triples leave strictly
// row-major with no comparison at all: stable counting passes over 16-bit
// digits of the column id, least significant first — the walk scatters
// straight into the first, a second runs only when some column id needs one —
// then one stable counting scatter by read. A read holds a k-mer at most once
// (the scan deduplicates), so its column ids are distinct and the result is
// strictly row-major. Scratch is two triple buffers, the per-read counts and
// one fixed 2¹⁶-entry digit count, never anything sized by the global column
// count.
func (s *stream) emitRowMajor(lo int, cols [][]int32) []ATriple {
	const digitBits = 16
	const digitMask = 1<<digitBits - 1
	p := len(cols)
	starts := make([]int32, len(s.end)+1) // by read, shifted one up
	digit := make([]int32, digitMask+2)   // by column digit, shifted one up
	var maxCol int32
	for _, part := range cols {
		for _, col := range part {
			if col >= 0 {
				digit[col&digitMask+1]++
				maxCol = max(maxCol, col)
			}
		}
	}
	prefixSums(digit)
	n := digit[digitMask+1]
	buf, out := make([]ATriple, n), make([]ATriple, n)
	cursor := make([]int, p)
	for i, end := range s.end {
		row := int32(lo + i)
		for j := s.start[i]; j < end; j++ {
			o := Owner(Kmer(s.kms[j]), p)
			col := cols[o][cursor[o]]
			cursor[o]++
			if col >= 0 {
				buf[digit[col&digitMask]] = ATriple{Row: row, Col: col, Val: s.occ[j]}
				digit[col&digitMask]++
				starts[i+1]++
			}
		}
	}
	if maxCol>>digitBits != 0 {
		clear(digit)
		for _, t := range buf {
			digit[t.Col>>digitBits+1]++
		}
		prefixSums(digit)
		for _, t := range buf {
			out[digit[t.Col>>digitBits]] = t
			digit[t.Col>>digitBits]++
		}
		buf, out = out, buf
	}
	prefixSums(starts)
	for _, t := range buf {
		idx := int(t.Row) - lo
		out[starts[idx]] = t
		starts[idx]++
	}
	return out
}

// prefixSums turns counts into running totals in place; over counts shifted
// one up, entry i becomes the start of bucket i.
func prefixSums(counts []int32) {
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
}
