package main

import (
	"fmt"
	"os"

	"repro/internal/obs"
)

// manifestBench is the synthetic benchmark name the manifest's derived
// metrics live under, so -assert works unchanged in -manifest mode (a bare
// 'metric<=value' assertion defaults to it).
const manifestBench = "manifest"

// runManifestMode loads the manifest (and optional baseline), verifies, and
// exits nonzero on any violation. restarts ≥ 0 additionally requires the
// run's supervised restart count to equal it exactly — the chaos job's proof
// that a fault was injected AND recovered from (0 restarts means the fault
// never fired; more means the job thrashed). asserts are evaluated against
// the manifest's derived metrics (align_cells, cache_hit, comm_bytes, …);
// with pairPath every derived metric additionally gains a <name>_ratio
// against the companion manifest, which is how the elbad smoke job proves a
// cache hit re-did at most half the sweep pair's alignment work.
func runManifestMode(curPath, basePath, pairPath string, restarts int, asserts string) {
	cur, err := obs.ReadManifestFile(curPath)
	if err != nil {
		fatal(err)
	}
	var base *obs.Manifest
	if basePath != "" {
		base, err = obs.ReadManifestFile(basePath)
		if err != nil {
			fatal(err)
		}
	}
	bad := verifyManifest(cur, base)
	if restarts >= 0 && cur.Restarts != restarts {
		bad = append(bad, fmt.Sprintf("restarts = %d, want exactly %d", cur.Restarts, restarts))
	}
	if asserts != "" {
		metrics := manifestMetrics(cur)
		if pairPath != "" {
			pair, err := obs.ReadManifestFile(pairPath)
			if err != nil {
				fatal(err)
			}
			for name, pv := range manifestMetrics(pair) {
				if pv > 0 {
					metrics[name+"_ratio"] = metrics[name] / pv
				}
			}
		}
		rec := &Record{Benchmarks: map[string]map[string]float64{manifestBench: metrics}}
		bad = append(bad, checkAsserts(rec, asserts)...)
	} else if pairPath != "" {
		bad = append(bad, "-manifest-pair without -assert checks nothing")
	}
	if len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL:", m)
		}
		os.Exit(1)
	}
	fmt.Println("benchguard: manifest verified")
}

// manifestMetrics flattens a manifest into assertable scalars: the traffic
// and contig totals, the supervised restart count, cache_hit (1 when the
// daemon's artifact cache satisfied the run's alignment), and the run's own
// performed work from its metric snapshot — align_cells is 0 for a cache
// hit, because a record's metrics cover only the stages its run executed
// (obs.Manifest) and the resumed run never aligned (absent metrics read as 0
// for exactly that reason).
func manifestMetrics(m *obs.Manifest) map[string]float64 {
	out := map[string]float64{
		"comm_bytes": float64(m.Comm.Bytes),
		"comm_msgs":  float64(m.Comm.Msgs),
		"contigs":    float64(m.Contigs.Count),
		"restarts":   float64(m.Restarts),
		"cache_hit":  0,
	}
	if m.Cache == "hit" {
		out["cache_hit"] = 1
	}
	for _, metric := range m.Metrics {
		if metric.Name != "align.cells" {
			continue
		}
		if metric.Kind == obs.KindHistogram {
			out["align_cells"] = float64(metric.Sum)
		} else {
			out["align_cells"] = float64(metric.Value)
		}
	}
	if _, ok := out["align_cells"]; !ok {
		out["align_cells"] = 0
	}
	return out
}

// verifyManifest is the -manifest mode: it checks the RUN.json record's
// internal invariants (schema match, non-negative counters, the per-stage
// comm_overlap + comm_exposed == comm_total identities via Manifest.Verify)
// and, when a baseline manifest is given, the cross-run determinism
// contract: the contig checksum and the byte/message traffic totals must be
// identical — they are schedule-invariant for a pinned dataset, so any
// drift is an algorithmic change, not noise. Wall-clock fields and gauges
// are never compared. Returns one message per violation.
func verifyManifest(cur *obs.Manifest, base *obs.Manifest) []string {
	bad := cur.Verify()
	if base == nil {
		return bad
	}
	if vb := base.Verify(); len(vb) > 0 {
		for _, m := range vb {
			bad = append(bad, "baseline: "+m)
		}
		return bad
	}
	if cur.Contigs.Checksum != base.Contigs.Checksum {
		bad = append(bad, fmt.Sprintf("contig checksum drifted: %s -> %s (contigs must be bit-identical)",
			base.Contigs.Checksum, cur.Contigs.Checksum))
	}
	if cur.Contigs.Count != base.Contigs.Count || cur.Contigs.TotalBases != base.Contigs.TotalBases {
		bad = append(bad, fmt.Sprintf("contig summary drifted: %d contigs/%d bases -> %d contigs/%d bases",
			base.Contigs.Count, base.Contigs.TotalBases, cur.Contigs.Count, cur.Contigs.TotalBases))
	}
	if cur.Comm.Bytes != base.Comm.Bytes || cur.Comm.Msgs != base.Comm.Msgs {
		bad = append(bad, fmt.Sprintf("comm totals drifted: %d bytes/%d msgs -> %d bytes/%d msgs",
			base.Comm.Bytes, base.Comm.Msgs, cur.Comm.Bytes, cur.Comm.Msgs))
	}
	return bad
}
