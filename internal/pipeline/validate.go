package pipeline

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/kmer"
)

// Validate checks every option in one pass and reports all violations
// together, each error naming its field — so a caller who got three
// parameters wrong fixes them in one round trip instead of three. It is the
// single gate in front of every execution path: Resolve, Run and Plan all
// call it before any rank starts, which is why the deep kmer/grid code may
// simply panic on impossible values.
func (o Options) Validate() error {
	var errs []error
	bad := func(field, format string, args ...any) {
		errs = append(errs, fmt.Errorf("pipeline: Options.%s %s", field, fmt.Sprintf(format, args...)))
	}
	if o.P < 1 {
		bad("P", "= %d: must be at least 1", o.P)
	} else if d := isqrt(o.P); d*d != o.P {
		bad("P", "= %d: not a perfect square (the paper's √P×√P grid requirement)", o.P)
	}
	if o.K < 1 || o.K > kmer.MaxK {
		bad("K", "= %d: out of range 1..%d (2 bits per base in a 64-bit word)", o.K, kmer.MaxK)
	}
	switch o.AlignBackend {
	case "", BackendXDrop, BackendWFA:
	default:
		bad("AlignBackend", "= %q: unknown backend (want %s)", o.AlignBackend, strings.Join(AlignBackends(), "|"))
	}
	switch o.Transport {
	case "", TransportInproc, TransportTCP:
	case TransportProc:
		if o.NewWorld == nil {
			bad("Transport", "= %q: needs the NewWorld endpoint hook (run via cmd/elba -transport proc)", o.Transport)
		}
	default:
		bad("Transport", "= %q: unknown transport (want %s)", o.Transport, strings.Join(Transports(), "|"))
	}
	if o.Threads < 0 {
		bad("Threads", "= %d: must be ≥ 0 (0 = auto split of GOMAXPROCS)", o.Threads)
	}
	if o.XDrop < 0 {
		bad("XDrop", "= %d: threshold must be ≥ 0", o.XDrop)
	}
	if o.ReliableLow < 0 {
		bad("ReliableLow", "= %d: threshold must be ≥ 0", o.ReliableLow)
	}
	if o.ReliableHigh < 0 {
		bad("ReliableHigh", "= %d: threshold must be ≥ 0", o.ReliableHigh)
	} else if o.ReliableHigh < o.ReliableLow {
		bad("ReliableHigh", "= %d: below ReliableLow = %d (selects no reliable k-mers)", o.ReliableHigh, o.ReliableLow)
	}
	if o.MinOverlap < 0 {
		bad("MinOverlap", "= %d: threshold must be ≥ 0", o.MinOverlap)
	}
	if !(o.MinScoreFrac >= 0) || math.IsInf(o.MinScoreFrac, 1) { // NaN fails every comparison
		bad("MinScoreFrac", "= %g: threshold must be a finite number ≥ 0", o.MinScoreFrac)
	}
	if o.MaxOverhang < 0 {
		bad("MaxOverhang", "= %d: threshold must be ≥ 0", o.MaxOverhang)
	}
	if o.TRFuzz < 0 {
		bad("TRFuzz", "= %d: threshold must be ≥ 0", o.TRFuzz)
	}
	if o.TRMaxIter < 0 {
		bad("TRMaxIter", "= %d: must be ≥ 0", o.TRMaxIter)
	}
	switch o.CheckpointEvery {
	case "", "all":
	case StageExtractContig:
		bad("CheckpointEvery", "= %q: the final stage is never checkpointed (its output is the result; use -manifest/-contigs)", o.CheckpointEvery)
	default:
		if !slices.Contains(StageNames(), o.CheckpointEvery) {
			bad("CheckpointEvery", "= %q: unknown stage (want all|%s)", o.CheckpointEvery, strings.Join(StageNames()[:len(StageNames())-1], "|"))
		}
	}
	if o.CheckpointEvery != "" && o.CheckpointDir == "" {
		bad("CheckpointEvery", "= %q: set without CheckpointDir", o.CheckpointEvery)
	}
	if o.Trace != nil && o.Trace.Ranks() < o.P {
		bad("Trace", "covers %d ranks: needs at least P = %d", o.Trace.Ranks(), o.P)
	}
	return errors.Join(errs...)
}
