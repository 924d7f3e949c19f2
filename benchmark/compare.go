package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	// Unresolved: the run-to-run spread of either side exceeds the bound, so
	// the medians cannot show the metric held — that is not "unchanged".
	verdictUnresolved = "unresolved"
)

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &results{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if res.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, res.Schema, resultsSchema)
	}
	return res, nil
}

// judge compares one metric of the candidate (b) against the baseline (a).
// worse is the share of a's median by which b's median is worse (negative:
// better).
func judge(a, b metricResult) (worse float64, verdict string) {
	sign := 1.0
	if a.Better == "higher" {
		sign = -1
	}
	worse = sign * ratio(b.Median-a.Median, a.Median)
	spread := max(a.spread(), b.spread())
	// Every run of one side beats every run of the other.
	bWins := sign*b.Max < sign*a.Min
	aWins := sign*a.Max < sign*b.Min
	switch {
	case worse > a.Bound && (spread <= a.Bound || aWins):
		return worse, verdictRegression
	case spread > a.Bound && !bWins:
		return worse, verdictUnresolved
	case worse < -a.Bound:
		return worse, verdictImproved
	}
	return worse, verdictOK
}

// compareFiles prints the per workload × end-to-end metric delta table of
// two results files and returns the exit code: 1 when any pair regressed.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b *results
		if b, err = loadResults(pathB); err == nil {
			return compareResults(out, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func compareResults(out io.Writer, a, b *results) int {
	fmt.Fprintf(out, "baseline:  commit %s, seed %d, %d runs × %gs\n", a.Host.Commit, a.Config.Seed, a.Config.Runs, a.Config.Seconds)
	fmt.Fprintf(out, "candidate: commit %s, seed %d, %d runs × %gs\n", b.Host.Commit, b.Config.Seed, b.Config.Runs, b.Config.Seconds)
	if a.Config != b.Config {
		fmt.Fprintf(out, "warning: the two files were produced with different settings\n")
	}
	fmt.Fprintf(out, "\n%-14s %-18s %13s %13s %8s %8s %6s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "spread", "bound", "verdict")
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	counts := map[string]int{}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(out, "%-14s missing from the candidate\n", wa.Name)
			counts[verdictRegression]++
			continue
		}
		verdict := verdictOK
		if wb.FailedFrac > wa.FailedFrac {
			verdict = verdictRegression // no increase allowed
		}
		counts[verdict]++
		fmt.Fprintf(out, "%-14s %-18s %13.6g %13.6g %8s %8s %6s  %s\n", wa.Name, "failed_frac", wa.FailedFrac, wb.FailedFrac, "", "", "0%", verdict)
		for _, d := range allEndToEnd() {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			worse, verdict := judge(ma, mb)
			counts[verdict]++
			fmt.Fprintf(out, "%-14s %-18s %13.6g %13.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n", wa.Name, d.Name,
				ma.Median, mb.Median, 100*worse, 100*max(ma.spread(), mb.spread()), 100*ma.Bound, verdict)
		}
	}
	fmt.Fprintf(out, "\n%d ok, %d improved, %d unresolved, %d regressed\n",
		counts[verdictOK], counts[verdictImproved], counts[verdictUnresolved], counts[verdictRegression])
	if counts[verdictRegression] > 0 {
		return 1
	}
	return 0
}
