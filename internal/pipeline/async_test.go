package pipeline

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/readsim"
	"repro/internal/trace"
)

// runPair assembles the same reads with blocking and nonblocking
// communication and returns both outputs.
func runPair(t *testing.T, reads [][]byte, opt Options) (syncOut, asyncOut *Output) {
	t.Helper()
	opt.Async = false
	syncOut, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Async = true
	asyncOut, err = Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	return syncOut, asyncOut
}

// assertSameContigs fails unless the two outputs carry byte-identical
// contig sets.
func assertSameContigs(t *testing.T, a, b *Output, label string) {
	t.Helper()
	if len(a.Contigs) != len(b.Contigs) {
		t.Fatalf("%s: contig count differs: %d vs %d", label, len(a.Contigs), len(b.Contigs))
	}
	for i := range a.Contigs {
		if !bytes.Equal(a.Contigs[i].Seq, b.Contigs[i].Seq) {
			t.Fatalf("%s: contig %d differs", label, i)
		}
	}
}

// assertOverlapInvariants checks the counter contract on an async run
// against its sync twin: per stage, overlap+exposed == total, the sync run
// has zero overlap, and traffic is identical between modes — in total and
// under every stage and sub-stage name (both modes run one schedule, so every
// send lands in the same stage).
func assertOverlapInvariants(t *testing.T, syncOut, asyncOut *Output, label string) {
	t.Helper()
	if syncOut.Stats.CommBytes != asyncOut.Stats.CommBytes {
		t.Fatalf("%s: total bytes differ: sync %d, async %d", label, syncOut.Stats.CommBytes, asyncOut.Stats.CommBytes)
	}
	if syncOut.Stats.CommMsgs != asyncOut.Stats.CommMsgs {
		t.Fatalf("%s: total messages differ: sync %d, async %d", label, syncOut.Stats.CommMsgs, asyncOut.Stats.CommMsgs)
	}
	for _, stages := range [][]string{MainStages, ContigStages, AlignmentPhases} {
		for _, s := range stages {
			se, ae := syncOut.Stats.Timers.Get(s), asyncOut.Stats.Timers.Get(s)
			if se.SumBytes != ae.SumBytes || se.SumMsgs != ae.SumMsgs || se.MaxBytes != ae.MaxBytes || se.MaxMsgs != ae.MaxMsgs {
				t.Fatalf("%s: stage %s traffic differs: sync %d B / %d msgs (max %d / %d), async %d / %d (max %d / %d)", label, s,
					se.SumBytes, se.SumMsgs, se.MaxBytes, se.MaxMsgs, ae.SumBytes, ae.SumMsgs, ae.MaxBytes, ae.MaxMsgs)
			}
		}
	}
	var sawOverlap bool
	for _, tm := range []*trace.Summary{syncOut.Stats.Timers, asyncOut.Stats.Timers} {
		isAsync := tm == asyncOut.Stats.Timers
		for _, s := range tm.Names() {
			e := tm.Get(s)
			if e.SumOverlapBytes < 0 || e.SumExposedBytes() < 0 {
				t.Fatalf("%s: stage %s negative counter: overlap %d, exposed %d",
					label, s, e.SumOverlapBytes, e.SumExposedBytes())
			}
			if e.SumOverlapBytes+e.SumExposedBytes() != e.SumBytes {
				t.Fatalf("%s: stage %s overlap+exposed != total: %d+%d != %d",
					label, s, e.SumOverlapBytes, e.SumExposedBytes(), e.SumBytes)
			}
			if e.MaxOverlapBytes > e.MaxBytes {
				t.Fatalf("%s: stage %s max overlap %d exceeds max bytes %d",
					label, s, e.MaxOverlapBytes, e.MaxBytes)
			}
			if !isAsync && e.SumOverlapBytes != 0 {
				t.Fatalf("%s: blocking run reports %d overlap bytes in %s", label, e.SumOverlapBytes, s)
			}
			if isAsync && e.SumOverlapBytes > 0 {
				sawOverlap = true
			}
		}
	}
	if !sawOverlap && asyncOut.Stats.P > 1 {
		t.Fatalf("%s: nonblocking run recorded no overlappable traffic", label)
	}
}

// TestAsyncSyncEquivalence is the acceptance gate of the nonblocking layer:
// for every tested (P, threads, backend) combination the contigs must be
// bit-identical between blocking and nonblocking modes, total traffic must
// match, and comm_overlap + comm_exposed == comm_total must hold per stage.
func TestAsyncSyncEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline matrix in -short mode")
	}
	genome := readsim.Genome(readsim.GenomeConfig{Length: 24000, Seed: 501})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 12, MeanLen: 1600, Seed: 502}))

	cases := []struct {
		p, threads int
		backend    string
	}{
		{1, 1, BackendXDrop},
		{4, 1, BackendXDrop},
		{4, 2, BackendXDrop},
		{9, 1, BackendXDrop},
		{4, 1, BackendWFA},
		{4, 2, BackendWFA},
	}
	var ref *Output
	for _, tc := range cases {
		opt := DefaultOptions(tc.p)
		opt.K = 21
		opt.XDrop = 25
		opt.Threads = tc.threads
		opt.AlignBackend = tc.backend
		label := tc.backend + "/P=" + strconv.Itoa(tc.p) + "/T=" + strconv.Itoa(tc.threads)
		syncOut, asyncOut := runPair(t, reads, opt)
		assertSameContigs(t, syncOut, asyncOut, label)
		assertOverlapInvariants(t, syncOut, asyncOut, label)
		// The nonblocking schedule must also not change contigs across P or
		// threads within one backend.
		if tc.backend == BackendXDrop {
			if ref == nil {
				ref = asyncOut
			} else {
				assertSameContigs(t, ref, asyncOut, label+" vs P=1")
			}
		}
	}
}

// TestAsyncPackedSeqComm drives the chunked nonblocking sequence exchange
// (packed and raw protocols) through the full pipeline.
func TestAsyncPackedSeqComm(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run in -short mode")
	}
	genome := readsim.Genome(readsim.GenomeConfig{Length: 20000, Seed: 503})
	reads := readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 10, MeanLen: 1500, Seed: 504}))
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	opt.PackSeqComm = true
	syncOut, asyncOut := runPair(t, reads, opt)
	assertSameContigs(t, syncOut, asyncOut, "packed")
	assertOverlapInvariants(t, syncOut, asyncOut, "packed")
}
