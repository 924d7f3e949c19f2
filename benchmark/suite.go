package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const resultsSchema = "elba/bench/v1"

// suiteConfig parameterizes a full invocation.
type suiteConfig struct {
	Seed    int64   `json:"seed"`
	Runs    int     `json:"runs"`
	Seconds float64 `json:"run_seconds"`
	Scale   float64 `json:"scale"`
	Out     string  `json:"-"`
}

// hostInfo is the results header: enough to tell two trajectory points from
// different machines apart.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

// metricResult is one end-to-end metric of one workload over its runs.
type metricResult struct {
	summary
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerResult is one per-layer metric from the traced run.
type layerResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult aggregates every run of one workload.
type workloadResult struct {
	Name       string                  `json:"name"`
	Why        string                  `json:"why"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	FailedFrac float64                 `json:"failed_frac"`
	Checksum   string                  `json:"contig_checksum"`
	Violations []string                `json:"violations,omitempty"`
	EndToEnd   map[string]metricResult `json:"end_to_end"`
	PerLayer   map[string]layerResult  `json:"per_layer"`
}

// results is the file a full invocation writes and -compare reads.
type results struct {
	Schema    string           `json:"schema"`
	Host      hostInfo         `json:"host"`
	Config    suiteConfig      `json:"config"`
	Workloads []workloadResult `json:"workloads"`
}

func currentHost() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown",
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// runChild executes one run in a fresh process — this binary again, in
// single-workload mode — so peak RSS, CPU time and GC state belong to that
// run alone. Nothing else runs while the child does.
func runChild(self, dir string, wl workload, cfg suiteConfig, seq int, traced bool) (*runRecord, error) {
	path := filepath.Join(dir, fmt.Sprintf("run-%03d.json", seq))
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", wl.Name, "-seed", fmt.Sprint(cfg.Seed),
		"-seconds", fmt.Sprint(cfg.Seconds), "-scale", fmt.Sprint(cfg.Scale), "-trace", trace, "-record", path)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{}
	return rec, json.Unmarshal(data, rec)
}

// runSuite is the default invocation: the timed runs of every workload,
// interleaved round-robin so slow drift of the host spreads over all of
// them, then one traced run each. It returns the process's exit code.
func runSuite(cfg suiteConfig) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	if err := os.MkdirAll(filepath.Join(scratchDir, "tmp"), 0o755); err != nil {
		fatal("%v", err)
	}
	dir, err := os.MkdirTemp(filepath.Join(scratchDir, "tmp"), "suite-*")
	if err != nil {
		fatal("%v", err)
	}
	defer os.RemoveAll(dir)

	ws := workloads()
	timed := make([][]*runRecord, len(ws))
	traced := make([]*runRecord, len(ws))
	seq := 0
	launch := func(i int, isTraced bool) *runRecord {
		seq++
		kind := "timed"
		if isTraced {
			kind = "traced"
		}
		fmt.Fprintf(os.Stderr, "[%s] run %d: %s %s\n", time.Now().Format("15:04:05"), seq, ws[i].Name, kind)
		rec, err := runChild(self, dir, ws[i], cfg, seq, isTraced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			rec = &runRecord{Workload: ws[i].Name, Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
		}
		return rec
	}
	for r := 0; r < cfg.Runs; r++ {
		for i := range ws {
			timed[i] = append(timed[i], launch(i, false))
		}
	}
	for i := range ws {
		traced[i] = launch(i, true)
	}

	res := results{Schema: resultsSchema, Host: currentHost(), Config: cfg}
	for i, wl := range ws {
		res.Workloads = append(res.Workloads, aggregate(wl, timed[i], traced[i]))
	}
	crossCheck(res.Workloads)
	printResults(os.Stdout, &res)

	data, err := json.MarshalIndent(&res, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(cfg.Out), 0o755); err == nil {
			err = os.WriteFile(cfg.Out, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fatal("writing results: %v", err)
	}
	fmt.Printf("\nresults written to %s\n", cfg.Out)
	for _, w := range res.Workloads {
		if w.FailedFrac > 0 {
			return 1
		}
	}
	return 0
}

// aggregate folds one workload's runs: a summary per end-to-end metric over
// the timed runs, the traced run's per-layer values, failures over attempts.
func aggregate(wl workload, timed []*runRecord, traced *runRecord) workloadResult {
	w := workloadResult{Name: wl.Name, Why: wl.Why,
		EndToEnd: map[string]metricResult{}, PerLayer: map[string]layerResult{}}
	all := append(append([]*runRecord(nil), timed...), traced)
	for _, rec := range all {
		w.Attempted += rec.Attempted
		w.Failed += rec.Failed
		switch {
		case w.Checksum == "":
			w.Checksum = rec.Checksum
		case rec.Checksum != w.Checksum:
			w.Violations = append(w.Violations, fmt.Sprintf("contig checksum differs between runs of seed %d: %s vs %s", rec.Seed, rec.Checksum, w.Checksum))
		}
	}
	for _, d := range allEndToEnd() {
		var xs []float64
		for _, rec := range timed {
			if v, ok := rec.Metrics[d.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			w.EndToEnd[d.Name] = metricResult{summarize(xs), d.Unit, d.Better, d.Bound}
		}
	}
	for _, d := range perLayer {
		if v, ok := traced.Metrics[d.Name]; ok {
			w.PerLayer[d.Name] = layerResult{v, d.Unit}
		}
	}
	return w
}

// crossCheck applies the checks that span runs and workloads, then settles
// failed_frac: a violated invariant fails the whole workload.
func crossCheck(ws []workloadResult) {
	byName := map[string]*workloadResult{}
	for i := range ws {
		byName[ws[i].Name] = &ws[i]
	}
	a, b := byName["layout-inproc"], byName["layout-tcp"]
	if a != nil && b != nil {
		for _, c := range []struct {
			what string
			x, y any
		}{
			{"contigs", a.Checksum, b.Checksum},
			{"comm_bytes", a.PerLayer["mpi.comm_bytes"].Value, b.PerLayer["mpi.comm_bytes"].Value},
			{"comm_msgs", a.PerLayer["mpi.comm_msgs"].Value, b.PerLayer["mpi.comm_msgs"].Value},
		} {
			if c.x != c.y {
				msg := fmt.Sprintf("layout-inproc and layout-tcp disagree on %s: %v vs %v", c.what, c.x, c.y)
				a.Violations = append(a.Violations, msg)
				b.Violations = append(b.Violations, msg)
			}
		}
	}
	for i := range ws {
		w := &ws[i]
		if len(w.Violations) > 0 {
			w.Failed = w.Attempted
		}
		w.FailedFrac = ratio(float64(w.Failed), float64(w.Attempted))
	}
}

// stageShares are the spans the share-of-wall table is built from.
var stageShares = []string{
	"kmer.count_s", "overlap.detect_s", "wfa.align_s", "align.align_s", "tr.reduce_s", "core.contig_s", "core.gather_s",
}

func printResults(out io.Writer, res *results) {
	h := res.Host
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s %s commit=%s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.Commit)
	fmt.Fprintf(out, "config: seed=%d runs=%d run_seconds=%g scale=%g P=%d threads=%d async=true\n",
		res.Config.Seed, res.Config.Runs, res.Config.Seconds, res.Config.Scale, benchP, benchThreads)
	for _, w := range res.Workloads {
		fmt.Fprintf(out, "\n== %s ==\n%s\n", w.Name, w.Why)
		fmt.Fprintf(out, "  %-22s %-6s %14s   [%12s, %12s] %12s .. %-12s %3s  bound\n", "end-to-end", "unit", "median", "q1", "q3", "min", "max", "n")
		fmt.Fprintf(out, "  %-22s %-6s %14.6g   operations: %d attempted, %d failed\n", "failed_frac", "ratio", w.FailedFrac, w.Attempted, w.Failed)
		for _, d := range allEndToEnd() {
			m, ok := w.EndToEnd[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(out, "  %-22s %-6s %14.6g   [%12.6g, %12.6g] %12.6g .. %-12.6g %3d  %.0f%%\n",
				d.Name, d.Unit, m.Median, m.Q1, m.Q3, m.Min, m.Max, m.N, 100*d.Bound)
		}
		for _, v := range w.Violations {
			fmt.Fprintf(out, "  VIOLATION: %s\n", v)
		}
		fmt.Fprintf(out, "  per-layer (one traced run)\n")
		for _, d := range perLayer {
			if m, ok := w.PerLayer[d.Name]; ok {
				fmt.Fprintf(out, "    %-32s %-6s %14.6g\n", d.Name, d.Unit, m.Value)
			}
		}
		var total float64
		for _, name := range stageShares {
			total += w.PerLayer[name].Value
		}
		if total > 0 {
			fmt.Fprintf(out, "  share of the traced spans:")
			for _, name := range stageShares {
				if v := w.PerLayer[name].Value; v > 0 {
					fmt.Fprintf(out, " %s %.1f%%", strings.TrimSuffix(name, "_s"), 100*v/total)
				}
			}
			fmt.Fprintln(out)
		}
	}
}
