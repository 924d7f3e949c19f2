package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestNilMetricHandles(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("x"), r.Gauge("x"), r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live handles")
	}
	c.Add(5)
	g.Set(5)
	g.Add(1)
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || r.Snapshot() != nil {
		t.Fatal("nil handles not inert")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Counter("a.count").Add(4)
	g := r.Gauge("b.depth")
	g.Add(2)
	g.Add(3)
	g.Add(-4)
	h := r.Histogram("c.sizes")
	for _, v := range []int64{1, 7, 8, 1024, 0} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	// Sorted by name.
	if snap[0].Name != "a.count" || snap[1].Name != "b.depth" || snap[2].Name != "c.sizes" {
		t.Fatalf("snapshot order wrong: %v", snap)
	}
	if snap[0].Value != 7 {
		t.Fatalf("counter = %d, want 7", snap[0].Value)
	}
	if snap[1].Value != 1 || snap[1].Max != 5 {
		t.Fatalf("gauge value/max = %d/%d, want 1/5", snap[1].Value, snap[1].Max)
	}
	hs := snap[2]
	if hs.Count != 5 || hs.Sum != 1040 || hs.Min != 0 || hs.Max != 1024 {
		t.Fatalf("histogram summary wrong: %+v", hs)
	}
	// Buckets: 0 → hi 0; 1 → hi 1; 7,8 → hi 7 and 15; 1024 → hi 2047.
	wantHi := []int64{0, 1, 7, 15, 2047}
	if len(hs.Buckets) != len(wantHi) {
		t.Fatalf("bucket count %d, want %d: %v", len(hs.Buckets), len(wantHi), hs.Buckets)
	}
	for i, b := range hs.Buckets {
		if b.Hi != wantHi[i] {
			t.Fatalf("bucket %d hi = %d, want %d", i, b.Hi, wantHi[i])
		}
	}
	if bucketHi(64) != math.MaxInt64 {
		t.Fatal("top bucket must cap at MaxInt64")
	}
}

func TestMergeIsDeterministicAndAdditive(t *testing.T) {
	mk := func(scale int64) []Metric {
		r := NewRegistry()
		r.Counter("n").Add(10 * scale)
		r.Gauge("g").Set(5 * scale)
		h := r.Histogram("h")
		h.Observe(scale)
		h.Observe(100 * scale)
		return r.Snapshot()
	}
	a, b := mk(1), mk(3)
	m1 := Merge(a, b)
	m2 := Merge(b, a) // order-independent for these rules
	j1, _ := json.Marshal(m1)
	j2, _ := json.Marshal(m2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("merge not order independent:\n%s\n%s", j1, j2)
	}
	byName := map[string]Metric{}
	for _, m := range m1 {
		byName[m.Name] = m
	}
	if byName["n"].Value != 40 {
		t.Fatalf("counter merge = %d, want 40", byName["n"].Value)
	}
	if byName["g"].Value != 20 || byName["g"].Max != 15 {
		t.Fatalf("gauge merge = %+v", byName["g"])
	}
	h := byName["h"]
	if h.Count != 4 || h.Sum != 404 || h.Min != 1 || h.Max != 300 {
		t.Fatalf("histogram merge = %+v", h)
	}
}

// TestMetricSetMergedAndJSON: Snapshots gives each rank's view — an
// installed snapshot in place of the live registry — and a manifest carries
// them per rank beside their merge through JSON.
func TestMetricSetMergedAndJSON(t *testing.T) {
	s := NewMetricSet(3)
	for i := 0; i < s.Ranks(); i++ {
		s.Rank(i).Counter("mpi.msgs").Add(int64(i + 1))
	}
	s.SetSnapshot(1, []Metric{{Name: "mpi.msgs", Kind: KindCounter, Value: 20}})
	snaps := s.Snapshots()
	if len(snaps) != 3 || snaps[0][0].Value != 1 || snaps[1][0].Value != 20 || snaps[2][0].Value != 3 {
		t.Fatalf("snapshots = %v, want 1, 20 (installed), 3", snaps)
	}
	s.SetSnapshot(1, nil)
	if v := s.Snapshots()[1][0].Value; v != 2 {
		t.Fatalf("rank 1 after uninstalling its snapshot = %d, want its live 2", v)
	}

	m := validManifest()
	m.P = s.Ranks()
	m.PerRank = s.Snapshots()
	m.Metrics = Merge(m.PerRank...)
	if len(m.Metrics) != 1 || m.Metrics[0].Value != 6 {
		t.Fatalf("merged = %v, want one counter of 6", m.Metrics)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []Metric   `json:"metrics"`
		PerRank [][]Metric `json:"per_rank"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics) != 1 || doc.Metrics[0].Value != 6 || len(doc.PerRank) != 3 || doc.PerRank[2][0].Value != 3 {
		t.Fatalf("manifest JSON metrics wrong: %+v", doc)
	}
}
