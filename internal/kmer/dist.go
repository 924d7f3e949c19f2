package kmer

import (
	"fmt"

	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/spmat"
)

// ATriple is one nonzero of the |reads| × |k-mers| matrix A: read Row (a
// global read id) contains reliable k-mer column Col at Val.Pos() on strand
// Val.RC(). It is the matrix triple itself — 12 dense bytes — so the reply
// path's row triples (CountAndBuild) feed spmat.FromRows and the wire codec
// without a conversion.
type ATriple = spmat.Triple[Occur]

// Result is the outcome of the distributed counting stage on one rank.
type Result struct {
	K       int
	NumCols int // global number of reliable k-mer columns
	// Cols are the rank's columns of A, [Cols.Lo, Cols.Hi): the ids of the
	// reliable k-mers it counted, a range of its own that the ranks' ranges
	// tile in rank order. Each column lists the reads of every rank that
	// hold its k-mer, distinct, in the split layout spmat.ColumnProduct
	// multiplies in place (spmat.Columns).
	Cols        spmat.Columns[Occur]
	Occurrences int64 // k-mer occurrences this rank extracted (work units)
}

// Count is the distributed k-mer counter (Algorithm 1 lines 3–4), and it
// leaves each reliable k-mer's column of A on the rank that counted it.
//
// Protocol (all collectives on the full communicator):
//  1. Every rank extracts canonical k-mers from its reads into one flat
//     occurrence stream, in read order, keeping each kept window's position,
//     strand and owner — the owner of the k-mer's canonical minimizer
//     (Owner). It routes each read's maximal runs of consecutive kept
//     windows that share an owner to that owner as one record: a header
//     with the run's read and first window as deltas, then its 2-bit packed
//     bases (runs.go; one Alltoallv). No k-mer word is kept or sent, and no
//     read or position travels per k-mer.
//  2. Owners check every received part's records (a malformed one, or one
//     naming a read outside its sender's range, panics naming the sender),
//     expand the runs into k-mers with a rolling encoder, count them, mark
//     reliable k-mers in [low, high], and take a globally consecutive range
//     of column ids via Exscan. Counting is the two-phase Bloom-filtered
//     scheme of count.go when low ≥ 2 (singletons never enter the table);
//     low < 2 bypasses the filter so every count is taken exactly. The
//     tally records each received occurrence's table slot, its read's
//     parity and its strand.
//  3. Owners number each reliable k-mer in order of first appearance, read
//     off the recorded slots in rank order, then part order — together
//     global read order — then extraction order, and walk the parts once
//     more with the numbered records to write the occurrences of their
//     reliable k-mers, one counting scatter by column and read parity, as
//     their columns of A (columns). That is A's only sort.
//
// A k-mer and its reverse complement share their canonical minimizer, so
// every occurrence of a k-mer meets at one owner, counts are exact, and the
// owner holds the k-mer's whole column.
//
// threads sets the intra-rank worker count for the extraction scan (step 1),
// the rank's compute-heavy loop; ≤ 1 scans serially. Routing order — and
// with it every downstream collective — is identical for any thread count,
// because every read is extracted into its own span of the stream, fixed
// before the scan from the reads' window counts, and routed in read order.
//
// The exchange is one mpi.IAlltoallv, so every message honours
// mpi.MaxMessageBytes and the rank's own part is handed over, not copied.
// It is packed in place into mpi.Bufs, so a routed record is written once by
// its sender and read where it lands: in process the owner reads the
// sender's buffer itself, over TCP the frame its reader filled. It is posted
// as soon as the stream is routed; the rank sizes its count table while the
// parts are in flight (on a rank not in blocking mode). Counts, column ids,
// columns, and byte/message counters do not depend on the rank's mode.
func Count(store *fasta.DistStore, k int, low, high int32, threads int) *Result {
	res, _, _ := count(store, k, low, high, threads)
	return res
}

// CountAndBuild is Count plus the reply path A's columns replaced: each
// owner also answers every received occurrence, in the order its runs
// expand to, with its column id or -1 (a second Alltoallv, one int32 per
// occurrence, so the reply is the request's occurrences in the sender's
// stream order), and each rank walks its stream again, one cursor per owner
// into its reply, to emit the surviving triples of its own reads in that
// order. It returns Count's result and those triples: the nonzeros of the
// reads this rank owns, row-grouped — rows ascending, each read's columns
// distinct and in the order its extraction found them, the order
// spmat.FromRows takes. It has no production caller: its triples are the
// second path to A that tests hold Count's columns and the multiply built on
// them against.
func CountAndBuild(store *fasta.DistStore, k int, low, high int32, threads int) (*Result, []ATriple) {
	res, s, recs := count(store, k, low, high, threads)
	// Reply with column ids, mirroring the request's occurrences —
	// including parts whose entries are all -1 (no reliable k-mer matched).
	// The shape mirror is load-bearing: the requester matches replies
	// positionally against its own stream, so compacting all-miss parts would
	// need an extra index channel that costs more than the -1 words it saves,
	// and would change the wire traffic between runs with different
	// [low, high]. TestReplyShapeMirrorsRequests pins this: both comm modes
	// produce the same reply shape even when every part is all-miss.
	reply := make([]mpi.Buf[int32], len(recs))
	for src, rs := range recs {
		reply[src] = mpi.NewBuf[int32](len(rs))
		out := reply[src].Elems()
		for i, r := range rs {
			out[i] = -1
			if r >= 0 {
				out[i] = res.Cols.Lo + r>>2
			}
		}
	}
	cols := mpi.IAlltoallv(store.Comm, reply).WaitValue()
	return res, s.emit(store.Lo, cols)
}

// count is Count's shared core. Besides the result it returns the rank's
// stream and, by sender, the numbered record of every occurrence it
// received: col<<2 | read parity<<1 | strand with col relative to the rank's
// first column, or -1 for an unreliable k-mer.
func count(store *fasta.DistStore, k int, low, high int32, threads int) (*Result, *stream, [][]int32) {
	c := store.Comm
	p := c.Size()
	checkK(k)
	if p > 1<<16 {
		panic(fmt.Sprintf("kmer: %d ranks: the occurrence stream holds owners in 16 bits", p))
	}

	// 1. Extract (in parallel, each read into its span of the stream) and
	// route (serially, in read order — the wire layout is deterministic).
	pool := par.NewPool(threads, func(int) *ExtractScratch { return new(ExtractScratch) })
	pool.SetTrace(c.Lane(), "kmer.extract")
	s := extract(pool, store.Seqs, k, p)
	send := s.route(store.Seqs, store.Lo, k, p)
	var occ int64
	for i, end := range s.end {
		occ += int64(end - s.start[i])
	}
	req := mpi.IAlltoallv(c, send)

	// 2. Count and select on owners. Phase 1 (admission) observes the local
	// part first, then each remote part in rank order; phase 2 (the exact
	// tally) runs over the parts in rank order, so stored counts never depend
	// on the arrival schedule. The rank's own outgoing total is the sizing
	// proxy for what it receives: the minimizer hash spreads occurrences
	// about evenly across owners.
	cnt := newCounter(k, low, int(occ))
	recv := req.WaitValue()
	at := make([]int, p+1)
	for src, part := range recv {
		lo, hi := grid.BlockRange(store.N, p, src)
		at[src+1] = at[src] + runOccurrences(part, k, src, lo, hi)
	}
	flat := make([]int32, at[p])
	recs := make([][]int32, p)
	for src := range recs {
		recs[src] = flat[at[src]:at[src+1]]
	}
	cnt.observe(recv[c.Rank()])
	for src, part := range recv {
		if src != c.Rank() {
			cnt.observe(part)
		}
	}
	for src, part := range recv {
		lo, _ := grid.BlockRange(store.N, p, src)
		cnt.tally(part, lo, recs[src])
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

	// 3. Number the reliable k-mers at their first occurrence and write
	// their columns. The k-mers of one run share an owner, so those first
	// seen together get consecutive ids. Nothing downstream depends on which
	// id a k-mer gets.
	next := int32(0)
	cnt.table.number(flat, &next)
	res := &Result{K: k, NumCols: total, Cols: columns(recv, k, store.N, recs, int32(offset), nLocal), Occurrences: occ}
	return res, s, recs
}

// columns writes an owner's columns of A, [colLo, colLo+n), from the parts
// it received, by sender, and their numbered records (count): one counting
// scatter of every reliable occurrence by column and read parity — a
// record's bits above its strand — walking the parts in rank order. Each
// column thereby lists its even reads, then its odd ones, each ascending —
// the senders' read ranges of numReads reads ascend with their rank, and a
// part's reads never go backwards — and distinct, because a read holds a
// k-mer once: the split layout of spmat.Columns.
func columns(parts [][]byte, k, numReads int, recs [][]int32, colLo int32, n int) spmat.Columns[Occur] {
	next := make([]int32, 2*n+1) // by (column, parity), shifted one up
	for _, rs := range recs {
		for _, r := range rs {
			if r >= 0 {
				next[r>>1+1]++
			}
		}
	}
	for c := 1; c <= 2*n; c++ {
		next[c] += next[c-1]
	}
	a := spmat.Columns[Occur]{Lo: colLo, Hi: colLo + int32(n), Starts: make([]int32, n+1), Mid: make([]int32, n),
		Rows: make([]int32, next[2*n]), Vals: make([]Occur, next[2*n])}
	for c := range n {
		a.Starts[c], a.Mid[c] = next[2*c], next[2*c+1]
	}
	a.Starts[n] = next[2*n]
	for src, part := range parts {
		lo, _ := grid.BlockRange(numReads, len(parts), src)
		cur, rs := newRunCursor(part, lo), recs[src]
		for {
			read, start, cnt, _, ok := cur.next(k)
			if !ok {
				break
			}
			for t, r := range rs[:cnt] {
				if r >= 0 {
					key := r >> 1
					a.Rows[next[key]], a.Vals[next[key]] = int32(read), Occur(start+t)<<1|Occur(r&1)
					next[key]++
				}
			}
			rs = rs[cnt:]
		}
	}
	return a
}

// stream is one rank's extracted k-mer occurrences, flat and in read order:
// local read i's kept windows, in extraction order, are
// occ[start[i]:end[i]] — each window's position and strand — with the owner
// of each window's k-mer beside it in own. start comes from the reads'
// window counts before the scan, so the pool's workers write every read in
// place; a read keeps end[i]−start[i] of its windows after invalid bases and
// duplicates are dropped, and the rest of its span is never read. The
// k-mers themselves are not kept: the read's bases are where route packs
// them from.
type stream struct {
	occ   []Occur
	own   []uint16
	start []int // by read, plus one past the last span
	end   []int
}

// extract scans seqs into a stream for p owners, each read by one of pool's
// workers.
func extract(pool *par.Pool[*ExtractScratch], seqs [][]byte, k, p int) *stream {
	s := &stream{start: make([]int, len(seqs)+1), end: make([]int, len(seqs))}
	for i, seq := range seqs {
		s.start[i+1] = s.start[i] + windows(len(seq), k)
	}
	s.occ = make([]Occur, s.start[len(seqs)])
	s.own = make([]uint16, s.start[len(seqs)])
	par.ForEach(pool, len(seqs), func(sc *ExtractScratch, i int) {
		lo, hi := s.start[i], s.start[i+1]
		s.end[i] = lo + sc.scan(seqs[i], k, p, nil, s.occ[lo:hi], s.own[lo:hi])
	})
	return s
}

// runLen returns the length of the run that starts at the stream's window j,
// of a read whose kept windows end at end: the windows from j on, at most
// maxRun, whose positions follow one another (a dropped duplicate or an
// invalid base leaves a gap) and whose owners agree.
func (s *stream) runLen(j, end int) int {
	own, occ := s.own[j:end], s.occ[j:end]
	n := 1
	for n < len(own) && n < maxRun && own[n] == own[0] && occ[n].Pos() == occ[0].Pos()+int32(n) {
		n++
	}
	return n
}

// route packs the stream's runs (runs.go) by owner, in read order, into send
// buffers sized by a counting pre-pass, from the bases of seqs, the reads
// the stream was extracted from, whose global ids start at lo; part o is
// what owner o is sent.
func (s *stream) route(seqs [][]byte, lo, k, p int) []mpi.Buf[byte] {
	size := make([]int, p)
	h := newRunHeaders(lo, p)
	for i, end := range s.end {
		for j := s.start[i]; j < end; {
			n := s.runLen(j, end)
			o := int(s.own[j])
			dread, gap := h.next(o, lo+i, int(s.occ[j].Pos()), n)
			size[o] += runBytes(dread, gap, n, k)
			j += n
		}
	}
	parts := make([]mpi.Buf[byte], p)
	fill := make([][]byte, p)
	for o, n := range size {
		parts[o] = mpi.NewBuf[byte](n)
		fill[o] = parts[o].Elems()[:0]
	}
	h = newRunHeaders(lo, p)
	for i, end := range s.end {
		for j := s.start[i]; j < end; {
			n := s.runLen(j, end)
			o, pos := int(s.own[j]), int(s.occ[j].Pos())
			dread, gap := h.next(o, lo+i, pos, n)
			fill[o] = appendRun(fill[o], dread, gap, seqs[i][pos:pos+n+k-1], n)
			j += n
		}
	}
	return parts
}

// emit builds the triples of A of the stream's reads (global ids from lo)
// from the owners' replies cols: cols[o] answers, in order, the occurrences
// of the runs route sent owner o, each with its column id or -1 for an
// unreliable k-mer. A walk of the stream in read order, one cursor per
// owner, matches every occurrence with its answer and appends the survivors
// to one exact-size buffer, so the triples leave row-grouped: rows
// ascending, each read's columns in the order its scan found them. A read
// holds a k-mer at most once (the scan deduplicates), so its columns are
// distinct. Nothing here sorts: spmat.FromRows puts these triples in order
// once, as it scatters them into the panel frames SUMMA broadcasts.
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
			o := s.own[j]
			if col := cols[o][cursor[o]]; col >= 0 {
				out = append(out, ATriple{Row: row, Col: col, Val: s.occ[j]})
			}
			cursor[o]++
		}
	}
	return out
}
