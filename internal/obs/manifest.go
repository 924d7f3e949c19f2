package obs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
)

// ManifestSchema identifies the RUN.json layout; Verify rejects manifests
// from other schemas so benchguard fails loudly instead of misreading.
const ManifestSchema = "elba/run-manifest/v1"

// StageStats is one stage's row of the manifest: critical-path wall time,
// abstract work, and the communication totals with their overlap/exposed
// split. By construction OverlapBytes + ExposedBytes == Bytes and
// OverlapMsgs + ExposedMsgs == Msgs — Verify asserts both.
type StageStats struct {
	Name         string `json:"name"`
	WallNS       int64  `json:"wall_ns"` // max across ranks
	Work         int64  `json:"work"`    // summed work units (stage-specific)
	Bytes        int64  `json:"bytes"`   // summed across ranks
	Msgs         int64  `json:"msgs"`
	OverlapBytes int64  `json:"overlap_bytes"` // sent through the nonblocking layer
	OverlapMsgs  int64  `json:"overlap_msgs"`
	ExposedBytes int64  `json:"exposed_bytes"` // blocking remainder
	ExposedMsgs  int64  `json:"exposed_msgs"`
}

// CommTotals is the whole run's traffic (all ranks, all stages).
type CommTotals struct {
	Bytes int64 `json:"bytes"`
	Msgs  int64 `json:"msgs"`
}

// ContigSummary identifies the assembly output: Checksum is ChecksumSeqs
// over the canonically sorted contig sequences, so two runs produced
// bit-identical contigs iff their checksums match.
type ContigSummary struct {
	Count      int    `json:"count"`
	TotalBases int64  `json:"total_bases"`
	Checksum   string `json:"checksum"`
}

// Manifest is the machine-readable record of one assembly run (RUN.json).
// Options carries the full option set the run used (serialized as-is);
// PerRank holds each rank's metric snapshot, in rank order, and Metrics
// their deterministic cross-rank merge — both present only when the run
// collected metrics.
type Manifest struct {
	Schema  string        `json:"schema"`
	Options any           `json:"options"`
	P       int           `json:"p"`
	Threads int           `json:"threads"`
	WallNS  int64         `json:"wall_ns"`
	Stages  []StageStats  `json:"stages"`
	Comm    CommTotals    `json:"comm"` // the sums of the top-level Stages rows
	Contigs ContigSummary `json:"contigs"`
	Metrics []Metric      `json:"metrics,omitempty"`
	PerRank [][]Metric    `json:"per_rank,omitempty"`
	// Restarts counts how many times the supervised proc launcher relaunched
	// the worker group before this run completed (0 for an undisturbed run).
	// Like wall time it is never part of baseline comparison — a recovered
	// run's checksum and traffic totals still must match the baseline — but
	// chaos CI gates on its exact value with benchguard -manifest-restarts.
	Restarts int `json:"restarts,omitempty"`
	// Cache records how a daemon (elbad) job obtained its alignment
	// artifacts: "hit" when the run resumed from a shared post-Alignment
	// cache entry, "miss" when it computed one, empty outside the daemon.
	// Informational like Restarts — never part of baseline comparison, but
	// benchguard's manifest-derived cache_hit metric gates on it in the
	// elbad smoke job.
	Cache string `json:"cache,omitempty"`
}

// ChecksumSeqs hashes a sequence list order- and content-sensitively
// (length-prefixed SHA-256), for the contig checksum.
func ChecksumSeqs(seqs [][]byte) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, s := range seqs {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write(s)
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// Verify checks the manifest's internal invariants and returns one message
// per violation (empty slice: all good): schema match, non-negative
// counters, the per-stage comm_overlap + comm_exposed == comm_total
// identities, the run totals equal to the sums of the top-level stage rows
// (names without ':'; sub-stages nest inside them), a present checksum
// whenever contigs exist, and — when per-rank snapshots are recorded — one
// per rank whose merge is the recorded Metrics, so a record missing a rank's
// metrics fails.
func (m *Manifest) Verify() []string {
	var bad []string
	if m.Schema != ManifestSchema {
		bad = append(bad, fmt.Sprintf("schema %q, want %q", m.Schema, ManifestSchema))
	}
	if m.P < 1 {
		bad = append(bad, fmt.Sprintf("p = %d, want ≥ 1", m.P))
	}
	if m.Comm.Bytes < 0 || m.Comm.Msgs < 0 {
		bad = append(bad, fmt.Sprintf("negative comm totals: %d bytes, %d msgs", m.Comm.Bytes, m.Comm.Msgs))
	}
	var rowBytes, rowMsgs int64
	for _, s := range m.Stages {
		if !strings.Contains(s.Name, ":") {
			rowBytes += s.Bytes
			rowMsgs += s.Msgs
		}
		if s.Bytes < 0 || s.Msgs < 0 || s.OverlapBytes < 0 || s.OverlapMsgs < 0 ||
			s.ExposedBytes < 0 || s.ExposedMsgs < 0 {
			bad = append(bad, fmt.Sprintf("stage %s: negative traffic counter", s.Name))
			continue
		}
		if s.OverlapBytes+s.ExposedBytes != s.Bytes {
			bad = append(bad, fmt.Sprintf("stage %s: overlap_bytes %d + exposed_bytes %d != bytes %d",
				s.Name, s.OverlapBytes, s.ExposedBytes, s.Bytes))
		}
		if s.OverlapMsgs+s.ExposedMsgs != s.Msgs {
			bad = append(bad, fmt.Sprintf("stage %s: overlap_msgs %d + exposed_msgs %d != msgs %d",
				s.Name, s.OverlapMsgs, s.ExposedMsgs, s.Msgs))
		}
	}
	if rowBytes != m.Comm.Bytes || rowMsgs != m.Comm.Msgs {
		bad = append(bad, fmt.Sprintf("top-level stage rows sum to %d bytes, %d msgs; comm totals are %d bytes, %d msgs",
			rowBytes, rowMsgs, m.Comm.Bytes, m.Comm.Msgs))
	}
	if m.Contigs.Count > 0 && m.Contigs.Checksum == "" {
		bad = append(bad, fmt.Sprintf("%d contigs but empty checksum", m.Contigs.Count))
	}
	if m.Contigs.Count < 0 || m.Contigs.TotalBases < 0 {
		bad = append(bad, "negative contig summary")
	}
	if m.PerRank != nil {
		if len(m.PerRank) != m.P {
			bad = append(bad, fmt.Sprintf("per_rank has %d snapshots, want p = %d", len(m.PerRank), m.P))
		}
		if !slices.EqualFunc(Merge(m.PerRank...), m.Metrics, sameMetric) {
			bad = append(bad, "metrics are not the merge of the per_rank snapshots")
		}
	}
	return bad
}

// sameMetric reports whether two snapshots of a metric agree, an absent
// bucket list equal to an empty one (JSON omits both).
func sameMetric(a, b Metric) bool {
	if !slices.Equal(a.Buckets, b.Buckets) {
		return false
	}
	a.Buckets, b.Buckets = nil, nil
	return reflect.DeepEqual(a, b)
}

// WriteJSON writes the manifest as indented JSON (deterministic field
// order: encoding/json emits struct fields in declaration order, and the
// stage and metric slices are already deterministically ordered).
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path (the conventional name is RUN.json).
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadManifest parses a manifest from r. The Options field decodes to
// generic JSON (map[string]any); consumers needing typed options re-decode
// it themselves.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("obs: parsing manifest: %w", err)
	}
	return &m, nil
}

// ReadManifestFile reads and parses the manifest at path.
func ReadManifestFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadManifest(f)
}
