package pipeline

import (
	"slices"

	"repro/internal/obs"
)

// Manifest builds the machine-readable run record (RUN.json) from a
// completed run's output and the options it ran under: the full option set,
// per-stage wall/work/traffic rows with the overlap/exposed split (the
// recorded rows, in RowNames order), the run-wide communication totals, a
// contig checksum that identifies the assembly bit-exactly, and — when the
// run collected metrics — each rank's snapshot, taken once, with their
// deterministic cross-rank merge. The
// result satisfies obs.(*Manifest).Verify; benchguard's -manifest mode gates
// on it.
func (o *Output) Manifest(opt Options) *obs.Manifest {
	// Observability handles are run plumbing, not algorithmic parameters:
	// scrub them so the recorded options are plain data and two runs that
	// differ only in tracing produce comparable manifests.
	scrubbed := opt
	scrubbed.Trace, scrubbed.Metrics = nil, nil
	m := &obs.Manifest{
		Schema:  obs.ManifestSchema,
		Options: scrubbed,
		P:       o.Stats.P,
		Threads: o.Stats.Threads,
		WallNS:  int64(o.Stats.WallTime),
		Comm:    obs.CommTotals{Bytes: o.Stats.CommBytes, Msgs: o.Stats.CommMsgs},
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
	if opt.Metrics != nil {
		// A metric set may cover more ranks than the run has; only P report.
		m.PerRank = opt.Metrics.Snapshots()[:m.P]
		m.Metrics = obs.Merge(m.PerRank...)
	}
	return m
}
