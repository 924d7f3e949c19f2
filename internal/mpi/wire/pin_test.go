package wire_test

import (
	"testing"

	"repro/internal/bidir"
	"repro/internal/kmer"
	"repro/internal/mpi/wire"
	"repro/internal/overlap"
	"repro/internal/spmat"
	"repro/internal/trace"
)

// TestPipelineFingerprintsPinned pins the fingerprints of the element types
// the pipeline routes between ranks and persists in checkpoints and cache
// entries. A codec change that moves one makes every stored file of that type
// unreadable, so it needs a checkpoint schema bump, not a new golden value.
func TestPipelineFingerprintsPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uint32
	}{
		{"kmer.ATriple", wire.Fingerprint[kmer.ATriple](), 0x08a0c502},
		{"spmat.Triple[bidir.Edge]", wire.Fingerprint[spmat.Triple[bidir.Edge]](), 0x1e5ddfe2},
		{"spmat.Triple[bidir.Aln]", wire.Fingerprint[spmat.Triple[bidir.Aln]](), 0x84dc91ac},
		{"spmat.Triple[overlap.Seeds]", wire.Fingerprint[spmat.Triple[overlap.Seeds]](), 0x636c24db},
		{"trace.Record", wire.Fingerprint[trace.Record](), 0xe18f786a},
	} {
		if c.got != c.want {
			t.Errorf("%s fingerprint 0x%08x, want 0x%08x", c.name, c.got, c.want)
		}
	}
}
