package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/bidir"
	"repro/internal/mpi"
	"repro/internal/mpi/wire"
	"repro/internal/spmat"
)

// TestIAlltoallvCopyBudget pins the copies of a part in process. A dense part
// (uint64) that IAlltoallv delivers is the sender's Buf itself: no copy at
// send, none at receive. A part of a type that is not dense —
// spmat.Triple[bidir.Aln], padded around its bool — is encoded at send and
// decoded into fresh memory at receive, so it never aliases the sender's.
func TestIAlltoallvCopyBudget(t *testing.T) {
	type aln = spmat.Triple[bidir.Aln]
	if !wire.Dense[uint64]() || wire.Dense[aln]() {
		t.Fatalf("wire.Dense: uint64 %v, Triple[Aln] %v; the test needs a dense and a padded type", wire.Dense[uint64](), wire.Dense[aln]())
	}
	const p = 4
	word := func(src, dst, i int) uint64 { return uint64(src<<16 | dst<<8 | i) }
	rec := func(src, dst, i int) aln {
		return aln{Row: int32(src), Col: int32(dst), Val: bidir.Aln{U: int32(i), RC: i == 1, Score: int32(src*dst + i), LV: 7}}
	}
	// sent[src][dst] are the first elements of src's Bufs for dst.
	sentWords := make([][]*uint64, p)
	sentRecs := make([][]*aln, p)
	err := mpi.Run(p, func(c *mpi.Comm) {
		r := c.Rank()
		words := make([]mpi.Buf[uint64], p)
		recs := make([]mpi.Buf[aln], p)
		sentWords[r], sentRecs[r] = make([]*uint64, p), make([]*aln, p)
		for dst := range words {
			words[dst], recs[dst] = mpi.NewBuf[uint64](3), mpi.NewBuf[aln](2)
			for i := range words[dst].Elems() {
				words[dst].Elems()[i] = word(r, dst, i)
			}
			for i := range recs[dst].Elems() {
				recs[dst].Elems()[i] = rec(r, dst, i)
			}
			sentWords[r][dst], sentRecs[r][dst] = &words[dst].Elems()[0], &recs[dst].Elems()[0]
		}
		mpi.Barrier(c) // every rank's addresses are recorded before any is compared
		gotWords := mpi.IAlltoallv(c, words).WaitValue()
		gotRecs := mpi.IAlltoallv(c, recs).WaitValue()
		for src := 0; src < p; src++ {
			for i, w := range gotWords[src] {
				if w != word(src, r, i) {
					panic(fmt.Sprintf("rank %d: word %d from %d is %#x", r, i, src, w))
				}
			}
			for i, a := range gotRecs[src] {
				if a != rec(src, r, i) {
					panic(fmt.Sprintf("rank %d: record %d from %d is %+v", r, i, src, a))
				}
			}
			if len(gotWords[src]) != 3 || len(gotRecs[src]) != 2 {
				panic(fmt.Sprintf("rank %d: %d words and %d records from %d", r, len(gotWords[src]), len(gotRecs[src]), src))
			}
			if &gotWords[src][0] != sentWords[src][r] {
				panic(fmt.Sprintf("rank %d: the dense part from %d was copied", r, src))
			}
			if src != r && &gotRecs[src][0] == sentRecs[src][r] {
				panic(fmt.Sprintf("rank %d: the padded part from %d aliases its sender's buffer", r, src))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
