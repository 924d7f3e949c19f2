package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func sampleManifest() *obs.Manifest {
	m := &obs.Manifest{
		Schema:  obs.ManifestSchema,
		P:       4,
		Threads: 2,
		WallNS:  1e9,
		Stages: []obs.StageStats{
			{Name: "Alignment", WallNS: 5e8, Work: 1000, Bytes: 100, Msgs: 10,
				OverlapBytes: 60, OverlapMsgs: 6, ExposedBytes: 40, ExposedMsgs: 4},
		},
		Comm:    obs.CommTotals{Bytes: 100, Msgs: 10},
		Contigs: obs.ContigSummary{Count: 3, TotalBases: 3000, Checksum: "sha256:abc"},
	}
	// Every run records one metric snapshot per rank and their merge.
	m.PerRank = make([][]obs.Metric, m.P)
	for r := range m.PerRank {
		m.PerRank[r] = []obs.Metric{{Name: "align.pairs", Kind: obs.KindCounter, Value: int64(r + 1)}}
	}
	m.Metrics = obs.Merge(m.PerRank...)
	return m
}

func TestVerifyManifestInternalInvariants(t *testing.T) {
	if bad := verifyManifest(sampleManifest(), nil); len(bad) != 0 {
		t.Fatalf("valid manifest flagged: %v", bad)
	}
	// The overlap/exposed split must account for every byte and message.
	m := sampleManifest()
	m.Stages[0].ExposedBytes = 0
	bad := verifyManifest(m, nil)
	if len(bad) != 1 || !strings.Contains(bad[0], "overlap_bytes") {
		t.Fatalf("broken byte split produced %v", bad)
	}
	m = sampleManifest()
	m.Stages[0].OverlapMsgs = 99
	bad = verifyManifest(m, nil)
	if len(bad) != 1 || !strings.Contains(bad[0], "overlap_msgs") {
		t.Fatalf("broken msg split produced %v", bad)
	}
}

func TestManifestMetrics(t *testing.T) {
	m := sampleManifest()
	m.Restarts = 2
	m.Metrics = []obs.Metric{
		{Name: "align.cells", Kind: obs.KindHistogram, Count: 4, Sum: 5000, Max: 2000},
		{Name: "align.pairs", Kind: obs.KindCounter, Value: 7},
	}
	got := manifestMetrics(m)
	want := map[string]float64{
		"align_cells": 5000, "cache_hit": 0, "comm_bytes": 100,
		"comm_msgs": 10, "contigs": 3, "restarts": 2,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %g, want %g", name, got[name], w)
		}
	}

	// A cache-hit manifest: Cache flips cache_hit, and a run that never
	// aligned (no align.cells metric at all) derives align_cells = 0 —
	// absence of work is the signal, not an error.
	m.Cache = "hit"
	m.Metrics = nil
	got = manifestMetrics(m)
	if got["cache_hit"] != 1 || got["align_cells"] != 0 {
		t.Fatalf("hit manifest derived cache_hit=%g align_cells=%g, want 1 and 0",
			got["cache_hit"], got["align_cells"])
	}
}

// TestManifestAsserts covers the -manifest mode assertion surface: bare
// 'metric<=value' assertions default to the synthetic "manifest" benchmark,
// and pair ratios divide current by companion per metric.
func TestManifestAsserts(t *testing.T) {
	cur, pair := sampleManifest(), sampleManifest()
	cur.Cache = "hit"
	pair.Cache = "miss"
	pair.Metrics = []obs.Metric{{Name: "align.cells", Kind: obs.KindHistogram, Count: 4, Sum: 5000}}

	metrics := manifestMetrics(cur)
	for name, pv := range manifestMetrics(pair) {
		if pv > 0 {
			metrics[name+"_ratio"] = metrics[name] / pv
		}
	}
	rec := &Record{Benchmarks: map[string]map[string]float64{manifestBench: metrics}}

	if bad := checkAsserts(rec, "cache_hit>=1,align_cells_ratio<=0.5"); len(bad) != 0 {
		t.Fatalf("smoke-job assertions flagged on a clean hit: %v", bad)
	}
	if bad := checkAsserts(rec, "cache_hit<=0"); len(bad) != 1 {
		t.Fatalf("hit passed a no-hit ceiling: %v", bad)
	}
	// The explicit name form still works in manifest mode.
	if bad := checkAsserts(rec, "manifest:comm_bytes_ratio<=1"); len(bad) != 0 {
		t.Fatalf("named manifest assertion flagged: %v", bad)
	}
	// cache_hit is 0 in the pair's metrics, so no cache_hit_ratio is
	// derived — asserting on it must fail loudly, not silently pass.
	if bad := checkAsserts(rec, "cache_hit_ratio>=1"); len(bad) != 1 {
		t.Fatalf("missing ratio metric passed: %v", bad)
	}
}

func TestVerifyManifestAgainstBaseline(t *testing.T) {
	if bad := verifyManifest(sampleManifest(), sampleManifest()); len(bad) != 0 {
		t.Fatalf("identical manifests flagged: %v", bad)
	}
	// Checksum drift is the determinism-contract violation.
	cur := sampleManifest()
	cur.Contigs.Checksum = "sha256:def"
	bad := verifyManifest(cur, sampleManifest())
	if len(bad) != 1 || !strings.Contains(bad[0], "checksum drifted") {
		t.Fatalf("checksum drift produced %v", bad)
	}
	// Traffic counters are schedule-invariant; any drift fails.
	cur = sampleManifest()
	cur.Comm.Msgs, cur.Stages[0].Msgs, cur.Stages[0].ExposedMsgs = 11, 11, 5
	bad = verifyManifest(cur, sampleManifest())
	if len(bad) != 1 || !strings.Contains(bad[0], "comm totals drifted") {
		t.Fatalf("comm drift produced %v", bad)
	}
	// Wall time is noisy and must never be compared.
	cur = sampleManifest()
	cur.WallNS = 9e9
	cur.Stages[0].WallNS = 7e9
	if bad := verifyManifest(cur, sampleManifest()); len(bad) != 0 {
		t.Fatalf("wall-clock drift flagged: %v", bad)
	}
	// A corrupt baseline fails loudly instead of vacuously passing.
	base := sampleManifest()
	base.Schema = "bogus/v0"
	bad = verifyManifest(sampleManifest(), base)
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "baseline:") {
		t.Fatalf("corrupt baseline produced %v", bad)
	}
}
