// Command benchmark is the repository's measurement spine: six workloads,
// end-to-end and per-layer metrics, one command. It drives the public
// functions of the packages under internal/ and times them from outside;
// see README.md for every workload and metric.
//
// Three ways to run it (run.sh builds and forwards its arguments):
//
//	benchmark -seed N                       every workload: -runs timed runs each, interleaved,
//	                                        then one traced run each; prints every metric and
//	                                        writes the results JSON (-out)
//	benchmark -workload W -seed N -seconds S -trace 0|1
//	                                        one run of one workload in this process; the last
//	                                        stdout line is the run's JSON (BENCHMARK.json contract)
//	benchmark -compare A.json B.json        delta table of two results files; exit 1 on a regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func workloads() []workload {
	var ws []workload
	for _, sp := range assemblySpecs {
		ws = append(ws, sp.workload())
	}
	for _, sp := range layoutSpecs {
		ws = append(ws, sp.workload())
	}
	return append(ws, serveWorkload)
}

// scratchDir, relative to the working directory (run.sh makes that the root
// of the checkout), holds everything a run writes: the daemon's cache, the
// children's records, the default results file.
const scratchDir = ".bench_build"

// smokeScale shrinks every input for -smoke: about a tenth of the sizes the
// issue sketched, the smallest at which every correctness floor still holds.
const smokeScale = 0.4

func main() {
	name := flag.String("workload", "", "run this one workload once, in this process")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "timed budget of one run")
	traceFlag := flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics")
	record := flag.String("record", "", "with -workload: also write the run's full record to this file")
	scale := flag.Float64("scale", 1, "input size multiplier")
	runs := flag.Int("runs", 5, "timed runs per workload")
	out := flag.String("out", scratchDir+"/BENCH.json", "results file of a full invocation")
	smoke := flag.Bool("smoke", false, "every workload shrunk, one short run each")
	compare := flag.Bool("compare", false, "compare two results files given as arguments")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *name != "":
		if flag.NArg() != 0 {
			fatal("unexpected arguments: %v", flag.Args())
		}
		runOne(*name, runConfig{Seed: *seed, Seconds: *seconds, Traced: *traceFlag != 0, Scale: *scale}, *record)
	default:
		if flag.NArg() != 0 {
			fatal("unexpected arguments: %v", flag.Args())
		}
		cfg := suiteConfig{Seed: *seed, Runs: *runs, Seconds: *seconds, Scale: *scale, Out: *out}
		if *smoke {
			cfg.Runs, cfg.Seconds, cfg.Scale = 1, 1, smokeScale
		}
		os.Exit(runSuite(cfg))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// contractMetric is one metric in the shape BENCHMARK.json's driver reads.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne executes one workload in this process and prints its result as the
// last line of standard output: the end-to-end metrics of an untraced run or
// the per-layer metrics of a traced one. The driver wants every listed
// metric from every workload, so a layer metric the workload does not have
// reads 0.
func runOne(name string, cfg runConfig, recordPath string) {
	var wl *workload
	for _, w := range workloads() {
		if w.Name == name {
			wl = &w
		}
	}
	if wl == nil {
		fatal("unknown workload %q", name)
	}
	rec := wl.Run(cfg)
	for _, e := range rec.Errors {
		fmt.Fprintf(os.Stderr, "%s: %s\n", name, e)
	}
	if recordPath != "" {
		data, err := json.Marshal(rec)
		if err == nil {
			err = os.WriteFile(recordPath, data, 0o644)
		}
		if err != nil {
			fatal("writing %s: %v", recordPath, err)
		}
	}
	defs := endToEnd
	if cfg.Traced {
		defs = allPerLayer()
	}
	metrics := map[string]contractMetric{}
	for _, d := range defs {
		metrics[d.Name] = contractMetric{rec.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal("encoding result: %v", err)
	}
	fmt.Println(string(line))
}
