package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/bidir"
	"repro/internal/obs"
)

// testLayoutBases is the smallest genome whose longest chromosomes still
// span two branch grid points, so edges get planted.
const testLayoutBases = 1_000_000

func TestLayoutGeneratorIsDeterministicPerSeed(t *testing.T) {
	a, b, c := generateLayout(3, testLayoutBases), generateLayout(3, testLayoutBases), generateLayout(4, testLayoutBases)
	if obs.ChecksumSeqs(a.Seqs) != obs.ChecksumSeqs(b.Seqs) || !reflect.DeepEqual(a.Triples, b.Triples) || !reflect.DeepEqual(a.Planted, b.Planted) {
		t.Error("the same seed gave two different layout problems")
	}
	if obs.ChecksumSeqs(a.Seqs) == obs.ChecksumSeqs(c.Seqs) || reflect.DeepEqual(a.Triples, c.Triples) {
		t.Error("different seeds gave the same layout problem")
	}
}

func TestAssemblyGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for _, sp := range assemblySpecs {
		a, b, c := sp.Gen(5, smokeScale), sp.Gen(5, smokeScale), sp.Gen(6, smokeScale)
		if !bytes.Equal(a.Genome, b.Genome) || obs.ChecksumSeqs(a.Reads) != obs.ChecksumSeqs(b.Reads) {
			t.Errorf("%s: the same seed gave two different inputs", sp.Name)
		}
		if bytes.Equal(a.Genome, c.Genome) || obs.ChecksumSeqs(a.Reads) == obs.ChecksumSeqs(c.Reads) {
			t.Errorf("%s: different seeds gave the same input", sp.Name)
		}
		if a.Opt.P != benchP || a.Opt.Threads != benchThreads || !a.Opt.Async || a.Opt.AlignBackend != sp.Backend {
			t.Errorf("%s: options not pinned: %+v", sp.Name, a.Opt)
		}
	}
}

func TestSyntheticAlignmentsAreMirroredDovetails(t *testing.T) {
	in := generateLayout(1, testLayoutBases)
	if len(in.Triples) == 0 || len(in.Planted) == 0 {
		t.Fatalf("degenerate problem: %d triples, %d planted endpoints", len(in.Triples), len(in.Planted))
	}
	cls := bidir.Params{MaxOverhang: layoutMaxOverhang}
	at := map[[2]int32]bidir.Aln{}
	for _, tr := range in.Triples {
		if tr.Val.U != tr.Row || tr.Val.V != tr.Col {
			t.Fatalf("entry (%d,%d) holds the alignment of (%d,%d)", tr.Row, tr.Col, tr.Val.U, tr.Val.V)
		}
		if _, kind := bidir.Classify(tr.Val, cls); kind != bidir.Dovetail {
			t.Fatalf("entry (%d,%d) classifies as kind %d, want dovetail", tr.Row, tr.Col, kind)
		}
		at[[2]int32{tr.Row, tr.Col}] = tr.Val
	}
	for key, a := range at {
		if m, ok := at[[2]int32{key[1], key[0]}]; !ok || m != a.Mirror() {
			t.Fatalf("entry (%d,%d) has no agreeing mirror", key[0], key[1])
		}
	}
}

func TestPlantedEdgesMakeBranchVertices(t *testing.T) {
	in := generateLayout(2, testLayoutBases)
	var inproc, traced *layoutPass
	for _, tracedPass := range []bool{false, true} {
		ps, err := layoutSpecs[0].pass(in, tracedPass)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Branch < 1 || ps.Branch < int64(len(in.Planted)) {
			t.Errorf("traced=%v: %d branch vertices from %d planted endpoints", tracedPass, ps.Branch, len(in.Planted))
		}
		var places []placement
		for _, c := range ps.Contigs {
			pl, err := in.placeContig(c.Seq, c.Reads)
			if err != nil {
				t.Fatal(err)
			}
			places = append(places, pl)
		}
		if covered, genome := in.coveredBases(places), in.genomeBases(); covered*10 < genome*9 {
			t.Errorf("traced=%v: contigs cover %d of %d bases", tracedPass, covered, genome)
		}
		if tracedPass {
			traced = ps
		} else {
			inproc = ps
		}
	}
	// The direct blocking calls of a traced pass are the same computation as
	// the pipeline's nonblocking schedule.
	if obs.ChecksumSeqs(contigSeqs(inproc.Contigs)) != obs.ChecksumSeqs(contigSeqs(traced.Contigs)) {
		t.Error("traced and untraced passes assembled different contigs")
	}
	if len(traced.Spans) != 9 {
		t.Errorf("traced pass recorded %d spans, want 9: %v", len(traced.Spans), traced.Spans)
	}
}

func TestPlaceContigRejectsWrongSequence(t *testing.T) {
	in := generateLayout(2, testLayoutBases)
	ps, err := layoutSpecs[0].pass(in, false)
	if err != nil {
		t.Fatal(err)
	}
	c := ps.Contigs[0]
	bad := append([]byte(nil), c.Seq...)
	bad[len(bad)/2] ^= 6 // A↔G, C↔E: never the same base
	if _, err := in.placeContig(bad, c.Reads); err == nil {
		t.Error("a corrupted contig passed the substring check")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %v, %v median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("three values: %v, %v; want 1, 4", q1, q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: the exclusive
	// method extrapolates past the sample on tiny inputs.
	if q1, q3 := quartiles([]float64{1, 3}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("two values: %v, %v; want 0.5, 3.5", q1, q3)
	}
	if q1, q3 := quartiles([]float64{5}); q1 != 5 || q3 != 5 {
		t.Errorf("one value: %v, %v; want 5, 5", q1, q3)
	}
	if p := percentile(xs, 90); math.Abs(p-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", p)
	}
	if percentile(xs, 0) != 1 || percentile(xs, 100) != 10 || !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile extremes wrong")
	}
	s := summarize(xs)
	if s.N != 10 || s.Min != 1 || s.Max != 10 || math.Abs(s.spread()-1) > 1e-12 {
		t.Errorf("summary %+v spread %v", s, s.spread())
	}
}

func TestN50AndCoverage(t *testing.T) {
	if got := n50([]int{2, 8, 4, 3, 3}); got != 4 { // 8+4 = 12 ≥ 20/2
		t.Errorf("n50 = %d, want 4", got)
	}
	in := &layoutInput{Chroms: [][]byte{make([]byte, 100), make([]byte, 50)}}
	got := in.coveredBases([]placement{{0, 10, 40}, {0, 30, 60}, {1, 0, 50}, {0, 90, 100}})
	if got != 50+10+50 {
		t.Errorf("covered %d bases, want 110", got)
	}
}

func TestJudge(t *testing.T) {
	m := func(better string, bound float64, xs ...float64) metricResult {
		return metricResult{summarize(xs), "s", better, bound}
	}
	cases := []struct {
		name string
		a, b metricResult
		want string
	}{
		{"same", m("lower", 0.1, 10, 10.1, 9.9, 10, 10), m("lower", 0.1, 10, 10.2, 9.9, 10, 10.1), verdictOK},
		{"slower", m("lower", 0.1, 10, 10.1, 9.9, 10, 10), m("lower", 0.1, 12, 12.1, 11.9, 12, 12), verdictRegression},
		{"faster", m("lower", 0.1, 10, 10.1, 9.9, 10, 10), m("lower", 0.1, 8, 8.1, 7.9, 8, 8), verdictImproved},
		{"noisy", m("lower", 0.1, 8, 12, 9, 11, 10), m("lower", 0.1, 8.5, 12, 9, 11, 10), verdictUnresolved},
		{"noisy but every run slower", m("lower", 0.1, 8, 12, 9, 11, 10), m("lower", 0.1, 14, 18, 15, 17, 16), verdictRegression},
		{"noisy but every run faster", m("lower", 0.1, 8, 12, 9, 11, 10), m("lower", 0.1, 4, 7, 5, 6, 5), verdictImproved},
		{"higher is better, dropped", m("higher", 0.05, 99, 99, 99), m("higher", 0.05, 80, 80, 80), verdictRegression},
		{"higher is better, rose", m("higher", 0.05, 80, 80, 80), m("higher", 0.05, 99, 99, 99), verdictImproved},
	}
	for _, c := range cases {
		if _, got := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	mk := func(wall float64, failed float64) *results {
		return &results{Schema: resultsSchema, Workloads: []workloadResult{{
			Name: "w", FailedFrac: failed,
			EndToEnd: map[string]metricResult{"wall_s": {summarize([]float64{wall, wall * 1.01, wall * 0.99}), "s", "lower", 0.15}},
		}}}
	}
	var out bytes.Buffer
	if code := compareResults(&out, mk(1, 0), mk(1.05, 0)); code != 0 {
		t.Errorf("5%% slower under a 15%% bound: exit %d\n%s", code, out.String())
	}
	if code := compareResults(&out, mk(1, 0), mk(1.5, 0)); code != 1 {
		t.Errorf("50%% slower: exit %d", code)
	}
	if code := compareResults(&out, mk(1, 0), mk(1, 0.2)); code != 1 {
		t.Errorf("new failures: exit %d", code)
	}
}

// BENCHMARK.json at the root of the repository describes this program to the
// driver; it must say what the tables here say.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads listed, the program has %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %q / %q, want %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, over 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, the program reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v, want %s/%s/%s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound %v, want %v", kind, d.Name, g.Bound, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, allPerLayer(), false)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
