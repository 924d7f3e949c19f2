package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func validManifest() *Manifest {
	return withPerRank(&Manifest{
		Schema:  ManifestSchema,
		P:       4,
		Threads: 2,
		WallNS:  12345,
		Stages: []StageStats{
			{Name: "CountKmer", WallNS: 10, Work: 100, Bytes: 800, Msgs: 4,
				OverlapBytes: 600, OverlapMsgs: 3, ExposedBytes: 200, ExposedMsgs: 1},
		},
		Comm:    CommTotals{Bytes: 800, Msgs: 4},
		Contigs: ContigSummary{Count: 2, TotalBases: 99, Checksum: ChecksumSeqs([][]byte{[]byte("ACGT")})},
	})
}

func TestChecksumSeqs(t *testing.T) {
	a := ChecksumSeqs([][]byte{[]byte("ACGT"), []byte("TTTT")})
	b := ChecksumSeqs([][]byte{[]byte("ACGT"), []byte("TTTT")})
	if a != b {
		t.Fatal("checksum not deterministic")
	}
	if c := ChecksumSeqs([][]byte{[]byte("ACGTT"), []byte("TTT")}); c == a {
		t.Fatal("length prefix must separate sequences")
	}
	if c := ChecksumSeqs([][]byte{[]byte("TTTT"), []byte("ACGT")}); c == a {
		t.Fatal("checksum must be order sensitive")
	}
	if !strings.HasPrefix(a, "sha256:") {
		t.Fatalf("checksum %q lacks algorithm prefix", a)
	}
}

func TestManifestVerify(t *testing.T) {
	if bad := validManifest().Verify(); len(bad) != 0 {
		t.Fatalf("valid manifest rejected: %v", bad)
	}
	m := validManifest()
	m.Stages[0].OverlapBytes = 700 // breaks overlap+exposed == total
	if bad := m.Verify(); len(bad) != 1 || !strings.Contains(bad[0], "overlap_bytes") {
		t.Fatalf("byte-split violation not caught: %v", bad)
	}
	m = validManifest()
	m.Stages[0].ExposedMsgs = 2
	if bad := m.Verify(); len(bad) != 1 || !strings.Contains(bad[0], "overlap_msgs") {
		t.Fatalf("msg-split violation not caught: %v", bad)
	}
	m = validManifest()
	m.Schema = "elba/run-manifest/v0"
	if bad := m.Verify(); len(bad) != 1 || !strings.Contains(bad[0], "schema") {
		t.Fatalf("schema violation not caught: %v", bad)
	}
	// A sub-stage row nests inside its parent: it never enters the sum.
	m = validManifest()
	m.Stages = append(m.Stages, StageStats{Name: "CG:Walk", Bytes: 8, Msgs: 1, ExposedBytes: 8, ExposedMsgs: 1})
	if bad := m.Verify(); len(bad) != 0 {
		t.Fatalf("sub-stage row counted into the totals: %v", bad)
	}
	// Traffic outside every top-level row (or a row missing) breaks the sum.
	m = validManifest()
	m.Comm.Msgs = 5
	if bad := m.Verify(); len(bad) != 1 || !strings.Contains(bad[0], "top-level stage rows") {
		t.Fatalf("totals beyond the rows not caught: %v", bad)
	}
	m = validManifest()
	m.Stages = nil
	if bad := m.Verify(); len(bad) != 1 || !strings.Contains(bad[0], "top-level stage rows") {
		t.Fatalf("missing rows not caught: %v", bad)
	}
	m = validManifest()
	m.Contigs.Checksum = ""
	if bad := m.Verify(); len(bad) != 1 || !strings.Contains(bad[0], "checksum") {
		t.Fatalf("missing checksum not caught: %v", bad)
	}
	// Per-rank snapshots: one per rank, merging to the recorded metrics. A
	// record without them, or missing a rank, is caught however its metrics
	// were merged.
	m = validManifest()
	m.PerRank, m.Metrics = nil, nil
	if bad := m.Verify(); len(bad) != 1 || !strings.Contains(bad[0], "per_rank has 0 snapshots") {
		t.Fatalf("record without per-rank snapshots not caught: %v", bad)
	}
	m = validManifest()
	m.PerRank = m.PerRank[:3]
	if bad := m.Verify(); len(bad) != 2 || !strings.Contains(bad[0], "per_rank has 3 snapshots") {
		t.Fatalf("missing rank not caught: %v", bad)
	}
	m.Metrics = Merge(m.PerRank...)
	if bad := m.Verify(); len(bad) != 1 || !strings.Contains(bad[0], "per_rank has 3 snapshots") {
		t.Fatalf("missing rank with matching merge not caught: %v", bad)
	}
	m = validManifest()
	m.PerRank[2][0].Value++
	if bad := m.Verify(); len(bad) != 1 || !strings.Contains(bad[0], "not the merge") {
		t.Fatalf("merge mismatch not caught: %v", bad)
	}
}

// withPerRank gives m per-rank snapshots — a counter, a gauge and a
// histogram on each of its P ranks — and their merge.
func withPerRank(m *Manifest) *Manifest {
	m.PerRank = make([][]Metric, m.P)
	for r := range m.PerRank {
		reg := NewRegistry()
		reg.Counter("align.pairs").Add(int64(10 * (r + 1)))
		reg.Gauge("kmer.table_entries").Set(int64(r))
		reg.Histogram("mpi.msg_bytes").Observe(int64(100 << r))
		m.PerRank[r] = reg.Snapshot()
	}
	m.Metrics = Merge(m.PerRank...)
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	m := validManifest()
	m.PerRank[0] = append(m.PerRank[0], Metric{Name: "align.cells", Kind: KindHistogram, Count: 3, Sum: 42})
	m.Metrics = Merge(m.PerRank...)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != m.Schema || got.P != m.P || got.Contigs.Checksum != m.Contigs.Checksum {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if len(got.Stages) != 1 || got.Stages[0].OverlapBytes != 600 {
		t.Fatalf("round trip lost stages: %+v", got.Stages)
	}
	if len(got.Metrics) != 4 || got.Metrics[0].Name != "align.cells" || got.Metrics[0].Sum != 42 {
		t.Fatalf("round trip lost metrics: %+v", got.Metrics)
	}
	if !reflect.DeepEqual(got.PerRank, m.PerRank) {
		t.Fatalf("round trip changed per_rank:\n%+v\nwant\n%+v", got.PerRank, m.PerRank)
	}
	if bad := got.Verify(); len(bad) != 0 {
		t.Fatalf("round-tripped manifest invalid: %v", bad)
	}
}
