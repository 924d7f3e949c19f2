package pipeline

import (
	"bytes"
	"strings"
	"testing"
)

// assertRowsSumToTotals fails unless the run's traffic totals are exactly
// the sums of its top-level stage rows (names without ':').
func assertRowsSumToTotals(t *testing.T, out *Output, label string) {
	t.Helper()
	var bytes, msgs int64
	for _, name := range out.Stats.Timers.Names() {
		if !strings.Contains(name, ":") {
			bytes += out.Stats.Timers.Get(name).SumBytes
			msgs += out.Stats.Timers.Get(name).SumMsgs
		}
	}
	if bytes != out.Stats.CommBytes || msgs != out.Stats.CommMsgs {
		t.Fatalf("%s: top-level rows sum to %d B / %d msgs, totals are %d B / %d msgs",
			label, bytes, msgs, out.Stats.CommBytes, out.Stats.CommMsgs)
	}
}

// assertSameRun fails unless the two outputs carry byte-identical contigs and
// equal traffic counters, each the sum of its run's top-level rows — the
// cross-transport equivalence contract.
func assertSameRun(t *testing.T, ref, got *Output, label string) {
	t.Helper()
	assertSameContigs(t, ref, got, label)
	assertRowsSumToTotals(t, ref, label+" (reference)")
	assertRowsSumToTotals(t, got, label)
	if ref.Stats.CommBytes != got.Stats.CommBytes {
		t.Fatalf("%s: comm bytes differ: %d vs %d", label, ref.Stats.CommBytes, got.Stats.CommBytes)
	}
	if ref.Stats.CommMsgs != got.Stats.CommMsgs {
		t.Fatalf("%s: comm messages differ: %d vs %d", label, ref.Stats.CommMsgs, got.Stats.CommMsgs)
	}
}

// TestTransportEquivalence extends the sync/async equivalence gate with the
// transport dimension: for every (transport, async) combination the contigs
// must be bit-identical to the in-process baseline and the byte/message
// counters must match exactly. The TCP rows run the full pipeline over real
// loopback sockets, so perf numbers recorded on either transport describe the
// same computation.
func TestTransportEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline transport matrix in -short mode (see TestTCPTransportSmoke)")
	}
	reads := testReads(18000, 617)
	const p = 4
	base := DefaultOptions(p)
	base.K = 21
	base.XDrop = 25

	var ref *Output
	for _, transport := range Transports() {
		for _, async := range []bool{false, true} {
			label := transport + "/async=" + map[bool]string{false: "off", true: "on"}[async]
			opt := base
			opt.Transport = transport
			opt.Async = async
			out, err := Run(reads, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(out.Contigs) == 0 {
				t.Fatalf("%s: no contigs", label)
			}
			if ref == nil {
				ref = out
				continue
			}
			assertSameRun(t, ref, out, label)
		}
	}
}

// TestTCPTransportSmoke keeps a socket-backed assembly in the -short suite:
// a small run over the TCP transport must finish, emit contigs, and agree
// with the in-process run on contigs and counters.
func TestTCPTransportSmoke(t *testing.T) {
	reads := testReads(8000, 619)
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25

	inproc, err := Run(reads, opt)
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}
	opt.Transport = TransportTCP
	tcpOut, err := Run(reads, opt)
	if err != nil {
		t.Fatalf("tcp: %v", err)
	}
	if len(tcpOut.Contigs) == 0 {
		t.Fatal("tcp run produced no contigs")
	}
	assertSameRun(t, inproc, tcpOut, "tcp vs inproc")

	var total int
	for _, c := range tcpOut.Contigs {
		total += len(c.Seq)
	}
	if total == 0 {
		t.Fatal("tcp contigs are empty")
	}
	if !bytes.ContainsAny(tcpOut.Contigs[0].Seq, "ACGT") {
		t.Fatalf("tcp contig 0 is not a DNA sequence: %q", tcpOut.Contigs[0].Seq[:min(16, len(tcpOut.Contigs[0].Seq))])
	}
}

// TestTransportValidation pins the Options seam: unknown transports are
// rejected up front, and the proc transport refuses to run without the
// launcher's endpoint hook instead of silently falling back to inproc.
func TestTransportValidation(t *testing.T) {
	opt := DefaultOptions(4)
	opt.Transport = "carrier-pigeon"
	if _, err := Run(nil, opt); err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Fatalf("unknown transport: err = %v, want mention of the bad name", err)
	}
	opt.Transport = TransportProc
	if _, err := Run(nil, opt); err == nil || !strings.Contains(err.Error(), "cmd/elba -transport proc") {
		t.Fatalf("proc without NewWorld hook: err = %v, want pointer at the launcher", err)
	}
}
