package pipeline

import (
	"slices"

	"repro/internal/obs"
)

// Manifest builds the machine-readable run record (RUN.json) from a
// completed run's output: the full option set its last engine ran under,
// per-stage wall/work/traffic rows with the overlap/exposed split (the
// recorded rows, in RowNames order), the run-wide communication totals, a
// contig checksum that identifies the assembly bit-exactly, and each rank's
// metric snapshot with their deterministic cross-rank merge (obs.Manifest
// says which stages each half covers). The result satisfies
// obs.(*Manifest).Verify; benchguard's -manifest mode gates on it.
func (o *Output) Manifest() *obs.Manifest {
	// The trace is run plumbing, not an algorithmic parameter: scrub it so
	// the recorded options are plain data and two runs that differ only in
	// tracing produce comparable manifests.
	scrubbed := o.opt
	scrubbed.Trace = nil
	m := &obs.Manifest{
		Schema:  obs.ManifestSchema,
		Options: scrubbed,
		P:       o.Stats.P,
		Threads: o.Stats.Threads,
		WallNS:  int64(o.Stats.WallTime),
		Comm:    obs.CommTotals{Bytes: o.Stats.CommBytes, Msgs: o.Stats.CommMsgs},
		PerRank: o.perRank,
		Metrics: obs.Merge(o.perRank...),
	}
	if t := o.Stats.Timers; t != nil {
		recorded := t.Names()
		for _, name := range RowNames() {
			if !slices.Contains(recorded, name) {
				continue
			}
			e := t.Get(name)
			m.Stages = append(m.Stages, obs.StageStats{
				Name:         name,
				WallNS:       int64(e.MaxDur),
				Work:         e.SumWork,
				Bytes:        e.SumBytes,
				Msgs:         e.SumMsgs,
				OverlapBytes: e.SumOverlapBytes,
				OverlapMsgs:  e.SumOverlapMsgs,
				ExposedBytes: e.SumExposedBytes(),
				ExposedMsgs:  e.SumExposedMsgs(),
			})
		}
	}
	seqs := make([][]byte, len(o.Contigs))
	var bases int64
	for i, c := range o.Contigs {
		seqs[i] = c.Seq
		bases += int64(len(c.Seq))
	}
	m.Contigs = obs.ContigSummary{Count: len(o.Contigs), TotalBases: bases}
	if len(seqs) > 0 {
		m.Contigs.Checksum = obs.ChecksumSeqs(seqs)
	}
	return m
}
