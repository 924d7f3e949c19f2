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
//  1. Every rank extracts canonical k-mers from its reads and routes one
//     record per (read, k-mer) occurrence to the k-mer's hash owner
//     (Alltoallv #1).
//  2. Owners count occurrences, mark reliable k-mers in [low, high], and
//     take a globally consecutive range of column ids via Exscan. Counting
//     is the two-phase Bloom-filtered scheme of count.go when low ≥ 2
//     (singletons never enter the table); low < 2 bypasses the filter so
//     every count is taken exactly.
//  3. Owners answer every received occurrence with its column id or -1
//     (Alltoallv #2, reply shape mirrors the request shape), numbering
//     each reliable k-mer in order of first appearance.
//  4. Ranks assemble local A-matrix triples from the replies.
//
// threads sets the intra-rank worker count for the extraction scan (step 1),
// the rank's compute-heavy loop; ≤ 1 scans serially. Routing order — and
// with it every downstream collective — is identical for any thread count,
// because extraction results are folded in read order.
//
// The exchanges are nonblocking: receives for Alltoallv #1 are posted before
// the extraction scan and the packing loop even start, so (on a rank not in
// blocking mode) remote occurrence records land while this rank is still
// packing, and the owner-side admission pass of step 2 consumes each incoming
// part as it arrives instead of blocking for the full exchange (the exact
// tally runs over the retained parts in rank order). Counts, column ids,
// triples, and byte/message counters do not depend on the rank's mode.
func CountAndBuild(store *fasta.DistStore, k int, low, high int32, threads int) *Result {
	c := store.Comm
	p := c.Size()

	// Post all receives up front (the overlap schedule: the matching sends are
	// buffered, so every transfer can complete while this rank is extracting
	// and packing).
	tag := mpi.ReserveTag(c)
	pending := make([]*mpi.RecvRequest[uint64], p)
	for off := 1; off < p; off++ {
		src := (c.Rank() - off + p) % p
		pending[src] = mpi.Irecv[uint64](c, src, tag)
	}

	// 1. Extract (in parallel, indexed by read) and route (serially, in read
	// order — the fold keeps the wire layout deterministic). Workers reuse
	// their scratch across reads and retain each read's k-mers in one
	// exact-size copy.
	perRead := make([][]KPos, store.Hi-store.Lo)
	pool := par.NewPool(threads, func(int) *ExtractScratch { return new(ExtractScratch) })
	pool.SetTrace(c.Lane(), "kmer.extract")
	par.ForEach(pool, len(perRead), func(sc *ExtractScratch, i int) {
		if kps := sc.ExtractInto(store.Seqs[i], k); len(kps) > 0 {
			perRead[i] = append(make([]KPos, 0, len(kps)), kps...)
		}
	})
	// Counting pre-pass sizes the per-destination buffers exactly — the
	// routing loop never append-grows.
	destOcc := make([]int, p)
	for i := range perRead {
		for _, kp := range perRead[i] {
			destOcc[Owner(kp.Kmer, p)]++
		}
	}
	sendKmers := make([][]uint64, p)
	sendMeta := make([][]occRec, p) // stays local, parallel to sendKmers
	for r := 0; r < p; r++ {
		sendKmers[r] = make([]uint64, 0, destOcc[r])
		sendMeta[r] = make([]occRec, 0, destOcc[r])
	}
	for g := store.Lo; g < store.Hi; g++ {
		for _, kp := range perRead[g-store.Lo] {
			o := Owner(kp.Kmer, p)
			sendKmers[o] = append(sendKmers[o], uint64(kp.Kmer))
			sendMeta[o] = append(sendMeta[o], occRec{Read: int32(g), Occ: MakeOccur(kp.Pos, kp.RC)})
		}
	}

	// 2. Count and select on owners. Phase 1 (admission) streams: it observes
	// the local part first, then each remote part in rank order as its posted
	// receive drains — admission of part r overlaps the transfer of parts
	// after r. Phase 2 (the exact tally) runs over the retained parts in rank
	// order, so stored counts never depend on the arrival schedule.
	var occ int64
	for r := 0; r < p; r++ {
		occ += int64(len(sendKmers[r]))
	}
	// The rank's own outgoing total is the sizing proxy for what it will
	// receive: the k-mer hash spreads occurrences uniformly across owners.
	cnt := newCounter(low, int(occ))
	recvKmers := make([][]uint64, p)
	for off := 1; off < p; off++ {
		dst := (c.Rank() + off) % p
		mpi.Isend(c, dst, tag, sendKmers[dst]).Wait()
	}
	recvKmers[c.Rank()] = sendKmers[c.Rank()]
	cnt.observe(recvKmers[c.Rank()])
	for src := 0; src < p; src++ {
		if pending[src] == nil {
			continue
		}
		recvKmers[src] = pending[src].WaitValue()
		cnt.observe(recvKmers[src])
	}
	for _, part := range recvKmers {
		cnt.tally(part)
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
	// mirror is load-bearing: the requester indexes replies positionally
	// against its retained sendMeta, so compacting all-miss parts would need
	// an extra index channel that costs more than the -1 words it saves, and
	// would change the wire traffic between runs with different [low, high].
	// TestReplyShapeMirrorsRequests pins this: both comm modes produce the
	// same reply shape even when every part is all-miss.
	//
	// The count table is the column index, and a reliable k-mer is numbered
	// at its first lookup: the owner's ids, its Exscan range, follow first
	// appearance in rank order, then part order — together global read
	// order — then extraction order. Neighbouring k-mers of one read mostly
	// get neighbouring ids, or met each other first along an earlier read
	// that overlaps it, so the multiply's consecutive B entries open
	// neighbouring runs of the A panel (DESIGN.md §8). Nothing downstream
	// depends on which id a k-mer gets.
	next := int32(offset)
	reply := make([][]int32, p)
	for r := 0; r < p; r++ {
		reply[r] = make([]int32, len(recvKmers[r]))
		for i, km := range recvKmers[r] {
			reply[r][i] = cnt.table.Column(Kmer(km), &next)
		}
	}
	cols := mpi.IAlltoallv(c, reply).WaitValue()

	// 4. Assemble the surviving triples, row-major.
	triples := assembleRowMajor(store.Lo, store.Hi, sendMeta, cols)
	return &Result{K: k, NumCols: total, Triples: triples, Occurrences: occ}
}

// occRec is the requester's record of one routed occurrence: which read it
// came from and where. It stays local, parallel to the k-mer words sent to
// the owner, and is matched positionally against the owner's reply.
type occRec struct {
	Read int32
	Occ  Occur
}

// assembleRowMajor builds the rank's triples of A from the routed
// occurrences meta and the owners' replies cols (column id, or -1 for an
// unreliable k-mer; same shape as meta), in strictly row-major order and with
// no comparison at all: stable counting passes over 16-bit digits of the
// column id, least significant first — the first scatters straight from the
// replies, a second runs only when some column id needs one — then one stable
// counting scatter by read over [lo, hi). A read holds a k-mer at most once
// (Extract deduplicates), so its column ids are distinct and the result is
// strictly row-major. Scratch is two triple buffers, the per-read counts and
// one fixed 2¹⁶-entry digit count, never anything sized by the global column
// count.
func assembleRowMajor(lo, hi int, meta [][]occRec, cols [][]int32) []ATriple {
	const digitBits = 16
	const digitMask = 1<<digitBits - 1
	starts := make([]int32, hi-lo+1)    // by read, shifted one up
	digit := make([]int32, digitMask+2) // by column digit, shifted one up
	var maxCol int32
	for r, part := range cols {
		for i, col := range part {
			if col >= 0 {
				starts[int(meta[r][i].Read)-lo+1]++
				digit[col&digitMask+1]++
				maxCol = max(maxCol, col)
			}
		}
	}
	prefixSums(starts)
	prefixSums(digit)
	buf, out := make([]ATriple, starts[hi-lo]), make([]ATriple, starts[hi-lo])
	for r, part := range cols {
		for i, col := range part {
			if col >= 0 {
				m := meta[r][i]
				buf[digit[col&digitMask]] = ATriple{Row: m.Read, Col: col, Val: m.Occ}
				digit[col&digitMask]++
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
