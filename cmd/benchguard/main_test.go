package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBackends_ErrorRates/C.elegans-like/xdrop-8         1  66970473994 ns/op  1792722574 align_cells  22218 align_wall_ms  180029282 comm_bytes  22290 comm_messages
BenchmarkThreads/T=4                                        1  33199992548 ns/op  1792722574 align_cells  1.022 align_speedup_x
PASS
ok  repro 222.414s
`

func parseSample(t *testing.T, text string) *Record {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestParseStripsProcsSuffixAndReadsMetrics(t *testing.T) {
	rec := parseSample(t, sample)
	if len(rec.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(rec.Benchmarks), rec.Benchmarks)
	}
	m, ok := rec.Benchmarks["BenchmarkBackends_ErrorRates/C.elegans-like/xdrop"]
	if !ok {
		t.Fatal("-8 GOMAXPROCS suffix not stripped")
	}
	if m["align_cells"] != 1792722574 {
		t.Fatalf("align_cells = %v", m["align_cells"])
	}
	if m["ns/op"] == 0 || m["align_wall_ms"] != 22218 {
		t.Fatalf("metrics misparsed: %v", m)
	}
	// T=4 has no procs suffix (GOMAXPROCS=1 host) and must NOT lose the =4.
	if _, ok := rec.Benchmarks["BenchmarkThreads/T=4"]; !ok {
		t.Fatalf("unsuffixed name mangled: %v", rec.Benchmarks)
	}
}

func TestCompareGate(t *testing.T) {
	gate := regexp.MustCompile(`^align_cells$`)
	base := parseSample(t, sample)

	if bad := compare(base, base, []gateRule{{gate, 2.0}}); len(bad) != 0 {
		t.Fatalf("identical runs flagged: %v", bad)
	}

	reg := parseSample(t, strings.ReplaceAll(sample, "1792722574 align_cells", "9999999999 align_cells"))
	bad := compare(base, reg, []gateRule{{gate, 2.0}})
	if len(bad) != 2 {
		t.Fatalf("5x work regression produced %d findings, want 2: %v", len(bad), bad)
	}

	// Wall-clock noise is not gated.
	noisy := parseSample(t, strings.ReplaceAll(sample, "22218 align_wall_ms", "99999 align_wall_ms"))
	if bad := compare(base, noisy, []gateRule{{gate, 2.0}}); len(bad) != 0 {
		t.Fatalf("wall-clock noise gated: %v", bad)
	}
}

// TestCompareBaselineAndRunMustMatch pins baseline hygiene under the real
// gateRules: the baseline and the run must name the same gated metrics, in
// both directions, so a stale or incomplete baseline fails CI.
func TestCompareBaselineAndRunMustMatch(t *testing.T) {
	withoutThreads := strings.Join(slices.DeleteFunc(strings.Split(sample, "\n"), func(l string) bool {
		return strings.HasPrefix(l, "BenchmarkThreads")
	}), "\n")
	for _, tc := range []struct {
		name      string
		base, cur string
		want      string // substring of the single finding; "" = gate passes
	}{
		{"baseline entry with no benchmark line", sample, withoutThreads, "BenchmarkThreads/T=4: benchmark missing from current run"},
		{"gated benchmark line with no baseline entry", withoutThreads, sample, "BenchmarkThreads/T=4: align_cells=1792722574 has no baseline entry"},
		{"gated metric new on a known benchmark", memSample, strings.ReplaceAll(memSample, "68 allocs/op", "68 allocs/op  9 comm_bytes"), "BenchmarkSpGEMMDistributed/P=1: comm_bytes=9 has no baseline entry"},
		{"ungated metric new on a known benchmark", memSample, strings.ReplaceAll(memSample, "68 allocs/op", "68 allocs/op  9 products/op"), ""},
	} {
		bad := compare(parseSample(t, tc.base), parseSample(t, tc.cur), gateRules)
		if tc.want == "" {
			if len(bad) != 0 {
				t.Errorf("%s: flagged %v", tc.name, bad)
			}
			continue
		}
		if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Errorf("%s: findings %v, want one containing %q", tc.name, bad, tc.want)
		}
	}
}

func TestCompareGatesCommCounters(t *testing.T) {
	gate := regexp.MustCompile(`^(align_cells|comm_bytes|comm_messages)$`)
	base := parseSample(t, sample)
	if bad := compare(base, base, []gateRule{{gate, 2.0}}); len(bad) != 0 {
		t.Fatalf("identical runs flagged: %v", bad)
	}
	// A collective going quadratic shows up as a message-count regression.
	reg := parseSample(t, strings.ReplaceAll(sample, "22290 comm_messages", "99999 comm_messages"))
	bad := compare(base, reg, []gateRule{{gate, 2.0}})
	if len(bad) != 1 || !strings.Contains(bad[0], "comm_messages") {
		t.Fatalf("comm_messages regression produced %v", bad)
	}
}

func TestCompareFlagsZeroBaselineAppearance(t *testing.T) {
	// A gated metric whose baseline is 0 must stay 0: traffic appearing in a
	// previously traffic-free benchmark (e.g. a P=1 run starting to send
	// bytes) is an infinite-ratio regression, not a skip.
	gate := regexp.MustCompile(`^comm_bytes$`)
	zeroed := parseSample(t, strings.ReplaceAll(sample, "180029282 comm_bytes", "0 comm_bytes"))
	appeared := parseSample(t, sample)
	bad := compare(zeroed, appeared, []gateRule{{gate, 2.0}})
	if len(bad) != 1 || !strings.Contains(bad[0], "appeared") {
		t.Fatalf("zero-baseline appearance produced %v", bad)
	}
	if bad := compare(zeroed, zeroed, []gateRule{{gate, 2.0}}); len(bad) != 0 {
		t.Fatalf("zero stayed zero but was flagged: %v", bad)
	}
}

const memSample = `goos: linux
BenchmarkCountAndBuildDistributed/P=1    2  114169832 ns/op  41414656 B/op  222 allocs/op
BenchmarkSpGEMMDistributed/P=1           2  8132181 ns/op  12736992 B/op  68 allocs/op
PASS
`

func TestParseNormalizesBenchmemUnits(t *testing.T) {
	rec := parseSample(t, memSample)
	m := rec.Benchmarks["BenchmarkCountAndBuildDistributed/P=1"]
	if m["allocs_per_op"] != 222 || m["bytes_per_op"] != 41414656 {
		t.Fatalf("benchmem units not normalized: %v", m)
	}
	if _, stale := m["B/op"]; stale {
		t.Fatalf("raw B/op unit leaked through: %v", m)
	}
}

// TestParseKeepsLeastAllocsOfRepeatedRuns: a benchmark run with -count
// is gated on its least allocs and bytes per op, in whatever order the runs
// came; its other metrics are the last run's.
func TestParseKeepsLeastAllocsOfRepeatedRuns(t *testing.T) {
	rec := parseSample(t, `BenchmarkDetectCandidates/sync-4  1  900 ns/op  121 B/op  7 allocs/op  5 products/op
BenchmarkDetectCandidates/sync-4  1  800 ns/op  108 B/op  9 allocs/op  5 products/op
BenchmarkDetectCandidates/sync-4  1  700 ns/op  114 B/op  8 allocs/op  5 products/op
`)
	m := rec.Benchmarks["BenchmarkDetectCandidates/sync"]
	if m["bytes_per_op"] != 108 || m["allocs_per_op"] != 7 || m["ns/op"] != 700 || m["products/op"] != 5 {
		t.Fatalf("repeated runs folded to %v, want 108 B/op, 7 allocs/op and the last run's 700 ns/op", m)
	}
}

func TestCompareAllocGateIsTighter(t *testing.T) {
	// The allocation gate trips at its own (tighter) ratio: a 1.6x allocs
	// growth passes the 2.0x work gate but must fail the 1.5x alloc gate,
	// and bytes_per_op is recorded but never gated.
	rules := []gateRule{
		{regexp.MustCompile(`^align_cells$`), 2.0},
		{regexp.MustCompile(`^allocs_per_op$`), 1.5},
	}
	base := parseSample(t, memSample)
	if bad := compare(base, base, rules); len(bad) != 0 {
		t.Fatalf("identical runs flagged: %v", bad)
	}
	grew := parseSample(t, strings.ReplaceAll(memSample, "222 allocs/op", "356 allocs/op"))
	bad := compare(base, grew, rules)
	if len(bad) != 1 || !strings.Contains(bad[0], "allocs_per_op") {
		t.Fatalf("1.6x alloc growth produced %v", bad)
	}
	bytes := parseSample(t, strings.ReplaceAll(memSample, "41414656 B/op", "999999999 B/op"))
	if bad := compare(base, bytes, rules); len(bad) != 0 {
		t.Fatalf("ungated bytes_per_op growth flagged: %v", bad)
	}
	// An allocation reduction (the point of the lean kernels) passes.
	lean := parseSample(t, strings.ReplaceAll(memSample, "222 allocs/op", "50 allocs/op"))
	if bad := compare(base, lean, rules); len(bad) != 0 {
		t.Fatalf("alloc reduction flagged: %v", bad)
	}
}

func TestGateRulesCatchByteGrowthCountsMiss(t *testing.T) {
	// The committed rules gate bytes_per_op beside allocs_per_op: a buffer
	// grown by append instead of sized up front moves the count by 15% (under
	// the 1.5x count gate) and the bytes by 1.8x, which must fail.
	base := parseSample(t, memSample)
	grew := parseSample(t, strings.NewReplacer("222 allocs/op", "255 allocs/op", "41414656 B/op", "74546380 B/op").Replace(memSample))
	bad := compare(base, grew, gateRules)
	if len(bad) != 1 || !strings.Contains(bad[0], "bytes_per_op regressed 1.80x") {
		t.Fatalf("1.8x byte growth under a 1.15x count growth produced %v", bad)
	}
	shrunk := parseSample(t, strings.ReplaceAll(memSample, "41414656 B/op", "13000000 B/op"))
	if bad := compare(base, shrunk, gateRules); len(bad) != 0 {
		t.Fatalf("byte reduction flagged: %v", bad)
	}
}

func TestCompareFirstMatchingRuleWins(t *testing.T) {
	// A metric matching several rules uses the first: listing the alloc rule
	// first pins allocs_per_op to 1.2x even if a broad rule would allow 10x.
	rules := []gateRule{
		{regexp.MustCompile(`^allocs_per_op$`), 1.2},
		{regexp.MustCompile(`per_op`), 10.0},
	}
	base := parseSample(t, memSample)
	grew := parseSample(t, strings.ReplaceAll(memSample, "222 allocs/op", "300 allocs/op"))
	bad := compare(base, grew, rules)
	if len(bad) != 1 || !strings.Contains(bad[0], "limit 1.2x") {
		t.Fatalf("rule precedence broken: %v", bad)
	}
}

func TestAsserts(t *testing.T) {
	rec := parseSample(t, sample)

	if bad := checkAsserts(rec, "BenchmarkThreads/T=4:align_speedup_x>=1.0"); len(bad) != 0 {
		t.Fatalf("passing floor flagged: %v", bad)
	}
	if bad := checkAsserts(rec, "BenchmarkThreads/T=4:align_speedup_x>=2"); len(bad) != 1 {
		t.Fatalf("failing floor not flagged: %v", bad)
	}
	if bad := checkAsserts(rec, "BenchmarkThreads/T=4:align_speedup_x<=2"); len(bad) != 0 {
		t.Fatalf("passing ceiling flagged: %v", bad)
	}
	// Benchmark names keep their GOMAXPROCS suffix on multi-core runners;
	// assertions must match after stripping, like the gate.
	if bad := checkAsserts(rec, "BenchmarkBackends_ErrorRates/C.elegans-like/xdrop-8:align_cells>=1"); len(bad) != 0 {
		t.Fatalf("suffixed name not matched: %v", bad)
	}
	// Missing benchmarks or metrics must fail, not silently pass.
	if bad := checkAsserts(rec, "BenchmarkNope:align_cells>=1"); len(bad) != 1 {
		t.Fatalf("missing benchmark passed: %v", bad)
	}
	if bad := checkAsserts(rec, "BenchmarkThreads/T=4:nope>=1"); len(bad) != 1 {
		t.Fatalf("missing metric passed: %v", bad)
	}
	// Multiple comma-separated assertions evaluate independently.
	bad := checkAsserts(rec, "BenchmarkThreads/T=4:align_speedup_x>=2, BenchmarkThreads/T=4:align_cells>=1")
	if len(bad) != 1 {
		t.Fatalf("combined assertions produced %v", bad)
	}
}
