// Command benchguard turns `go test -bench` output into a JSON record and
// enforces the CI benchmark-regression gate.
//
//	go test -run '^$' -bench 'Backends|Threads' -benchtime=1x -short . | tee bench.txt
//	benchguard -bench bench.txt -out BENCH_ci.json -baseline ci/bench_baseline.json
//
// The gate compares the Alignment stage's work counter (align_cells) and the
// pipeline's communication counters (comm_bytes, comm_messages) against the
// committed baseline and fails on more than 2x growth. Work and traffic
// units — DP cells / wavefront offsets, bytes and messages moved — are
// deterministic for a pinned dataset seed and identical on every host
// (and in blocking vs nonblocking comm modes), so the gate is immune to the
// noisy shared runners that make wall-clock gates flap; an algorithmic
// regression (a backend losing its pruning, a band blowing up, a collective
// going quadratic) shows up as a work or traffic regression first.
// Wall-clock numbers are not this tool's business: ns/op rides along in the
// JSON artifact, and every timing, RSS and throughput metric is measured,
// bounded and compared by benchmark/ (the spine) instead.
//
// Allocation metrics get their own, tighter gate: -benchmem output is
// normalized to allocs_per_op / bytes_per_op, and either fails on more than
// 1.5x growth (both are near-deterministic for a pinned seed, and the hot
// kernels are kept allocation-lean on purpose, so churn creep must not ride
// in under the loose work-counter ratio). The two catch different
// regressions: a buffer grown by append instead of sized up front multiplies
// the bytes and barely moves the count — the layout pass once allocated
// 981 MB where 320 MB do, with only twice the allocations — while map and
// slice growth thresholds shifting across Go versions stay far inside 1.5x.
// A benchmark whose one op allocates by schedule (several ranks in one
// process) runs with -count, and the least of its runs is gated.
//
// The baseline and the run must name the same gated metrics: a baseline
// entry no benchmark line matches fails (a deleted benchmark left a stale
// entry), and so does a gated metric with no baseline entry (a new benchmark
// nobody recorded) — a stale baseline is a red run, not a reviewer's finding.
//
// Absolute floors/ceilings — e.g. the nightly multi-core job asserting the
// worker-pool speedup — are expressed with -assert:
//
//	benchguard -bench bench.txt -assert 'BenchmarkThreads/T=4:align_speedup_x>=2'
//
// -manifest switches to run-manifest verification: the RUN.json written by
// `elba -manifest` is checked for its internal invariants (schema,
// non-negative counters, comm_overlap + comm_exposed == comm_total per
// stage), and with -manifest-baseline also for the determinism contract —
// the contig checksum and the byte/message traffic totals must be identical
// across runs (they are schedule-invariant for a pinned seed; wall-clock
// fields and gauges are never compared):
//
//	benchguard -manifest RUN.json -manifest-baseline ci/RUN_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Record is the persisted form of one bench run.
type Record struct {
	Note       string                        `json:"note,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

var (
	benchPath    = flag.String("bench", "", "go test -bench output to parse (default: stdin)")
	outPath      = flag.String("out", "", "write the parsed run as JSON here")
	basePath     = flag.String("baseline", "", "baseline JSON to gate against (omit to skip the gate)")
	asserts      = flag.String("assert", "", "comma-separated absolute assertions 'Benchmark/name:metric>=value' (also <=); checked against the current run")
	note         = flag.String("note", "", "free-form note stored in the JSON")
	manifestPath = flag.String("manifest", "", "verify a RUN.json run manifest instead of parsing bench output")
	manifestBase = flag.String("manifest-baseline", "", "baseline manifest: contig checksum and comm totals must match -manifest exactly")
	manifestPair = flag.String("manifest-pair", "", "companion manifest for -assert ratios: every derived metric gains <name>_ratio = manifest/pair (the elbad smoke job pairs a sweep's cache-hit run with its cold predecessor)")
	manifestRst  = flag.Int("manifest-restarts", -1, "require the -manifest run's supervised restart count to equal this exactly (-1: don't check); chaos CI uses it to prove a recovery actually happened")
)

func main() {
	flag.Parse()
	if *manifestPath != "" {
		runManifestMode(*manifestPath, *manifestBase, *manifestPair, *manifestRst, *asserts)
		return
	}
	if *manifestBase != "" {
		fatal(fmt.Errorf("-manifest-baseline requires -manifest"))
	}
	if *manifestPair != "" {
		fatal(fmt.Errorf("-manifest-pair requires -manifest"))
	}
	if *manifestRst >= 0 {
		fatal(fmt.Errorf("-manifest-restarts requires -manifest"))
	}
	in := os.Stdin
	if *benchPath != "" {
		f, err := os.Open(*benchPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	rec, err := parse(in)
	if err != nil {
		fatal(err)
	}
	rec.Note = *note
	if len(rec.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	if *outPath != "" {
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: wrote %d benchmarks to %s\n", len(rec.Benchmarks), *outPath)
	}
	if *asserts != "" {
		if bad := checkAsserts(rec, *asserts); len(bad) > 0 {
			for _, m := range bad {
				fmt.Fprintln(os.Stderr, "benchguard: FAIL:", m)
			}
			os.Exit(1)
		}
		fmt.Println("benchguard: assertions passed")
	}
	if *basePath == "" {
		return
	}
	baseBuf, err := os.ReadFile(*basePath)
	if err != nil {
		fatal(err)
	}
	var base Record
	if err := json.Unmarshal(baseBuf, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", *basePath, err))
	}
	if bad := compare(&base, rec, gateRules); len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL:", m)
		}
		os.Exit(1)
	}
	fmt.Println("benchguard: gate passed")
}

// gateRule pairs a metric-name pattern with its allowed growth ratio.
type gateRule struct {
	re       *regexp.Regexp
	maxRatio float64
}

// gateRules is the -baseline gate: the host-independent work and traffic
// counters at 2x, allocation counts and bytes at the tighter 1.5x.
var gateRules = []gateRule{
	{regexp.MustCompile(`^(align_cells|comm_bytes|comm_messages)$`), 2.0},
	{allocMetric, 1.5},
}

// allocMetric matches the -benchmem metrics.
var allocMetric = regexp.MustCompile(`^(allocs|bytes)_per_op$`)

// ratioFor returns the growth limit of the first rule matching metric, or 0
// when no rule gates it.
func ratioFor(rules []gateRule, metric string) float64 {
	for _, r := range rules {
		if r.re.MatchString(metric) {
			return r.maxRatio
		}
	}
	return 0
}

// parse reads go test -bench output: lines of the form
//
//	BenchmarkName/sub-8   1   123 ns/op   456 metric_a   7.8 metric_b
//
// The trailing -<GOMAXPROCS> suffix is stripped so records from hosts with
// different core counts compare against each other. A benchmark repeated
// with -count keeps the least allocs_per_op and bytes_per_op of its runs —
// what one op needs at least, the figure a schedule-dependent allocation
// count can be gated on — and its last run's other metrics.
func parse(f *os.File) (*Record, error) {
	rec := &Record{Benchmarks: map[string]map[string]float64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcs(fields[0])
		metrics := map[string]float64{}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q: %w", name, fields[i], err)
			}
			metric := metricName(fields[i+1])
			if prev, ok := rec.Benchmarks[name][metric]; ok && allocMetric.MatchString(metric) {
				v = min(v, prev)
			}
			metrics[metric] = v
		}
		rec.Benchmarks[name] = metrics
	}
	return rec, sc.Err()
}

var procsSuffix = regexp.MustCompile(`-\d+$`)

func stripProcs(name string) string { return procsSuffix.ReplaceAllString(name, "") }

// metricName normalizes the -benchmem units to identifier-shaped metric
// names so they can be gated and asserted like the custom counters; every
// other unit is stored verbatim.
func metricName(unit string) string {
	switch unit {
	case "B/op":
		return "bytes_per_op"
	case "allocs/op":
		return "allocs_per_op"
	}
	return unit
}

// compare returns one message per gated metric that regressed past its
// rule's maxRatio or exists on one side only. The first rule whose pattern
// matches a metric decides its ratio. A baseline entry missing from the
// current run fails, so the gate cannot be dodged by deleting the benchmark
// without refreshing the baseline; a gated metric of the current run missing
// from the baseline fails too, so a new benchmark cannot run ungated.
func compare(base, cur *Record, rules []gateRule) []string {
	var bad []string
	for _, name := range slices.Sorted(maps.Keys(base.Benchmarks)) {
		for metric, bv := range base.Benchmarks[name] {
			maxRatio := ratioFor(rules, metric)
			if maxRatio == 0 {
				continue
			}
			curMetrics, ok := cur.Benchmarks[name]
			if !ok {
				bad = append(bad, fmt.Sprintf("%s: benchmark missing from current run (baseline has %s=%.0f)", name, metric, bv))
				continue
			}
			cv, ok := curMetrics[metric]
			if !ok {
				bad = append(bad, fmt.Sprintf("%s: metric %s missing from current run (baseline %.0f)", name, metric, bv))
				continue
			}
			if bv == 0 && cv != 0 {
				// A zero baseline means the quantity must stay zero (e.g.
				// comm counters of a single-rank run): any appearance is an
				// infinite-ratio regression, not a skip.
				bad = append(bad, fmt.Sprintf("%s: %s appeared (baseline 0 -> %.0f)", name, metric, cv))
				continue
			}
			if bv > 0 && cv/bv > maxRatio {
				bad = append(bad, fmt.Sprintf("%s: %s regressed %.2fx (%.0f -> %.0f, limit %.1fx)",
					name, metric, cv/bv, bv, cv, maxRatio))
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(cur.Benchmarks)) {
		for metric, cv := range cur.Benchmarks[name] {
			if _, ok := base.Benchmarks[name][metric]; !ok && ratioFor(rules, metric) != 0 {
				bad = append(bad, fmt.Sprintf("%s: %s=%.0f has no baseline entry (record it in the baseline)", name, metric, cv))
			}
		}
	}
	return bad
}

// checkAsserts evaluates comma-separated 'Benchmark/name:metric>=value' (or
// <=) absolute assertions against the current run. Benchmark names match
// after GOMAXPROCS-suffix stripping, like the gate. A missing benchmark or
// metric fails the assertion — an absent measurement must not pass a floor.
func checkAsserts(rec *Record, spec string) []string {
	var bad []string
	for _, as := range strings.Split(spec, ",") {
		as = strings.TrimSpace(as)
		if as == "" {
			continue
		}
		name, metric, op, want, err := parseAssert(as)
		if err != nil {
			fatal(err)
		}
		metrics, ok := rec.Benchmarks[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: benchmark missing from run", as))
			continue
		}
		got, ok := metrics[metric]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: metric %s missing from run", as, metric))
			continue
		}
		holds := got >= want
		if op == "<=" {
			holds = got <= want
		}
		if !holds {
			bad = append(bad, fmt.Sprintf("%s: got %g, want %s %g", as, got, op, want))
		}
	}
	return bad
}

// parseAssert splits 'name:metric>=value' into its parts. The name part is
// optional: a bare 'metric>=value' targets the synthetic "manifest"
// benchmark that -manifest mode derives its metrics under.
func parseAssert(s string) (name, metric, op string, value float64, err error) {
	name, cond := manifestBench, s
	if i := strings.LastIndex(s, ":"); i >= 0 {
		name, cond = stripProcs(s[:i]), s[i+1:]
	}
	for _, candidate := range []string{">=", "<="} {
		if j := strings.Index(cond, candidate); j >= 0 {
			metric, op = cond[:j], candidate
			value, err = strconv.ParseFloat(cond[j+len(candidate):], 64)
			if err != nil {
				return "", "", "", 0, fmt.Errorf("bad -assert value in %q: %w", s, err)
			}
			return name, metric, op, value, nil
		}
	}
	return "", "", "", 0, fmt.Errorf("bad -assert %q: want >= or <=", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
