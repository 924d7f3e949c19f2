package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bidir"
	"repro/internal/grid"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/mpi/wire"
	"repro/internal/obs"
	"repro/internal/overlap"
	"repro/internal/spmat"
	"repro/internal/tr"
	"repro/internal/trace"
)

// Durable checkpoints: after a completed stage the engine serializes every
// rank's artifact state to CheckpointDir/<stage>/ — one wire-encoded file per
// rank plus a MANIFEST.json that rank 0 commits last. The commit protocol
// makes the layout crash-consistent with nothing but POSIX rename:
//
//  1. Each rank encodes its state with the mpi/wire typed codec (the same
//     deterministic encoding messages travel in, so checkpoint bytes are
//     transport- and schedule-invariant), writes it to a temp file in the
//     stage dir, fsyncs, and renames it to rank-<r>.ckpt.
//  2. The ranks gather their content hashes at rank 0 on the uncounted
//     control plane (so checkpointing never perturbs the traffic counters
//     the pipeline reports).
//  3. Rank 0 writes MANIFEST.json — stage, completed-stage list, options
//     fingerprint, reads checksum, per-rank hashes — via the same
//     temp+fsync+rename dance. The manifest rename is the commit point: a
//     stage dir without MANIFEST.json is garbage from an interrupted attempt
//     and LatestCheckpoint ignores it.
//
// LoadCheckpoint inverts the process with a two-phase protocol that can
// never hang on a corrupt file: every rank first reads, hash-verifies and
// decodes its file locally, then all ranks agree on success with one control
// allreduce; only when every rank loaded cleanly do they run the collective
// state rebuild (the grid exchange). A bad file surfaces as an error naming
// the rank and the file on every process.

// CheckpointSchema identifies the on-disk checkpoint layout version; DESIGN.md
// §13 records what each version changed. v8 lets the stage name the payload
// (no per-payload flags), drops the read count (the read set's size) and
// keeps one k-mer column count, written from CountKmer on. Older checkpoints
// and cache entries are refused by name, never reinterpreted.
const CheckpointSchema = "elba/checkpoint/v8"

// ckptSchema is the per-rank file's schema number (bumped with ckptRank).
const ckptSchema uint32 = 8

// CheckpointManifestName is the per-stage commit file written by rank 0.
const CheckpointManifestName = "MANIFEST.json"

// CheckpointManifest is the committed description of one stage checkpoint.
type CheckpointManifest struct {
	Schema        string   `json:"schema"`
	Stage         string   `json:"stage"`
	Done          []string `json:"done"`
	P             int      `json:"p"`
	Fingerprint   string   `json:"options_fingerprint"`
	ReadsChecksum string   `json:"reads_checksum"`
	RankHashes    []string `json:"rank_hashes"` // sha256 of rank-<r>.ckpt, world-rank order
	WallNS        int64    `json:"wall_ns"`
}

// FingerprintThrough returns a stable hex digest of the algorithmic options
// the stage prefix ending at `stage` (inclusive) depends on: each row of the
// stages table, through that stage, contributes the options it is the first
// to consume. Two uses share this one implementation: a checkpoint committed
// after a stage embeds the prefix through that stage, so LoadCheckpoint
// accepts a resuming engine whose options differ only downstream of the
// resume point (the TR-parameter sweep); and the serve-layer artifact cache
// keys entries by (reads checksum, prefix through the cached stage) so sweep
// jobs reuse one alignment. Plumbing and observability knobs (Threads,
// Async, Transport, Trace, the checkpoint settings themselves) never
// enter any prefix: they are result-invariant by the pipeline's standing
// equivalences. Unknown stage names panic — callers pass stage constants or
// names validated against StageNames.
func (o Options) FingerprintThrough(stage string) string {
	idx, err := stageIndex(stage)
	if err != nil {
		panic(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "elba/options/v2 through=%s", stage)
	for _, s := range stages[:idx+1] {
		if s.options != nil {
			io.WriteString(h, s.options(o))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint digests the full algorithmic option set — the prefix through
// the final stage. Two option values with equal fingerprints produce
// bit-identical contigs on the same reads.
func (o Options) Fingerprint() string { return o.FingerprintThrough(StageExtractContig) }

// ckptRank is one rank's serialized artifact state: a single wire frame.
// Distributed matrices are flattened to dims + the rank's local triples (the
// block geometry is a pure function of grid position and dims, rebuilt on
// load); pointers never cross the codec. Only the fields downstream stages
// still consume are populated — see rankCheckpoint; the rest stay zero.
type ckptRank struct {
	Schema      uint32
	Rank, P     int32
	Fingerprint string
	Stage       string
	Timers      []trace.Record

	KmerNumCols    int32 // from CountKmer on
	OvCandPairs    int64 // from DetectOverlap on
	OvKeptOverlaps int64 // from Alignment on
	OvContained    []int32

	KmerK           int32 // CountKmer
	KmerOccurrences int64
	KmerCols        spmat.Columns[kmer.Occur] // the rank's columns of A

	CandNR, CandNC int32 // DetectOverlap
	CandTriples    []spmat.Triple[overlap.Seeds]

	RNR, RNC int32 // Alignment
	RTriples []spmat.Triple[bidir.Aln]

	SGNR, SGNC     int32 // TrReduction
	SGTriples      []spmat.Triple[bidir.Edge]
	TRIterations   int64
	TREdgesRemoved int64
	TRProducts     int64
}

// rankFile names rank r's checkpoint file within a stage dir.
func rankFile(rank int) string { return fmt.Sprintf("rank-%d.ckpt", rank) }

// rankCheckpoint snapshots rank's state for the current resume point. Each
// stage's output is live only until the next stage consumes it, so a file
// holds the last stage's output: Kmers feed only DetectOverlap, Candidates
// only Alignment, R only TrReduction (which rederives the string graph from
// it), and after TrReduction the reduced StringGraph plus the replicated
// Overlap counters carry everything ExtractContig needs.
func (a *Artifacts) rankCheckpoint(rank int) ckptRank {
	rs := a.Ranks[rank]
	ck := ckptRank{
		Schema: ckptSchema, Rank: int32(rank), P: int32(a.Opt.P),
		Fingerprint: a.Opt.FingerprintThrough(a.Stage()), Stage: a.Stage(),
		Timers: rs.Timers.Records(),
	}
	if ov := rs.Overlap; ov != nil {
		ck.KmerNumCols = int32(ov.NumKmers)
		ck.OvCandPairs, ck.OvKeptOverlaps, ck.OvContained = ov.CandidatePairs, ov.KeptOverlaps, ov.Contained
	}
	switch a.Stage() {
	case StageCountKmer:
		ck.KmerK = int32(rs.Kmers.K)
		ck.KmerNumCols = int32(rs.Kmers.NumCols)
		ck.KmerOccurrences = rs.Kmers.Occurrences
		ck.KmerCols = rs.Kmers.Cols
	case StageDetectOverlap:
		ck.CandNR, ck.CandNC = rs.Candidates.NR, rs.Candidates.NC
		ck.CandTriples = rs.Candidates.Local.Ts
	case StageAlignment:
		ck.RNR, ck.RNC = rs.Overlap.R.NR, rs.Overlap.R.NC
		ck.RTriples = rs.Overlap.R.Local.Ts
	case StageTrReduction:
		ck.SGNR, ck.SGNC = rs.StringGraph.NR, rs.StringGraph.NC
		ck.SGTriples = rs.StringGraph.Local.Ts
		ck.TRIterations = int64(rs.TRStats.Iterations)
		ck.TREdgesRemoved = rs.TRStats.EdgesRemoved
		ck.TRProducts = rs.TRStats.Products
	}
	return ck
}

// replicatedNames names the values every rank's file carries a copy of,
// which LoadCheckpoint requires the ranks to agree on: the k-mer column
// count bounds every rank's column range and is the run's k-mer count, and
// the overlap counters are what a resumed run reports.
var replicatedNames = [...]string{"k-mer columns", "candidate pairs", "kept overlaps", "contained reads"}

// replicated returns the file's copies of the replicatedNames values.
func (ck *ckptRank) replicated() [len(replicatedNames)]int64 {
	return [...]int64{int64(ck.KmerNumCols), ck.OvCandPairs, ck.OvKeptOverlaps, int64(len(ck.OvContained))}
}

// strayPayload names the first part of ck that rankCheckpoint writes only
// for other stages ("" if there is none): a counter before the stage that
// first records it, or another stage's matrix or k-mer columns.
func (ck *ckptRank) strayPayload() string {
	from := func(stage string) bool { return reached(ck.Stage, stage) }
	a := ck.KmerCols
	for _, part := range []struct {
		name string
		ok   bool
	}{
		{"a k-mer column count", from(StageCountKmer) || ck.KmerNumCols == 0},
		{"a candidate count", from(StageDetectOverlap) || ck.OvCandPairs == 0},
		{"overlap counts", from(StageAlignment) || ck.OvKeptOverlaps == 0 && len(ck.OvContained) == 0},
		{"k-mer columns", ck.Stage == StageCountKmer ||
			ck.KmerK == 0 && ck.KmerOccurrences == 0 && a.Lo == 0 && a.Hi == 0 && len(a.Starts)+len(a.Mid)+len(a.Rows)+len(a.Vals) == 0},
		{"C", ck.Stage == StageDetectOverlap || ck.CandNR == 0 && ck.CandNC == 0 && len(ck.CandTriples) == 0},
		{"R", ck.Stage == StageAlignment || ck.RNR == 0 && ck.RNC == 0 && len(ck.RTriples) == 0},
		{"the string graph", ck.Stage == StageTrReduction || ck.SGNR == 0 && ck.SGNC == 0 && len(ck.SGTriples) == 0 &&
			ck.TRIterations == 0 && ck.TREdgesRemoved == 0 && ck.TRProducts == 0},
	} {
		if !part.ok {
			return part.name
		}
	}
	return ""
}

// reached reports whether stage is from or a stage after it in the stages
// table; both are known stage names.
func reached(stage, from string) bool {
	i, _ := stageIndex(stage)
	j, _ := stageIndex(from)
	return i >= j
}

// installRank writes a decoded checkpoint into rs: its stage's output, and
// from DetectOverlap on the overlap result's counters. The caller has already
// rebuilt rs.Grid and rs.Store (the only artifact fields whose construction
// communicates).
func installRank(rs *RankState, ck *ckptRank) {
	rs.Timers = trace.FromRecords(ck.Timers)
	if reached(ck.Stage, StageDetectOverlap) {
		rs.Overlap = &overlap.Result{
			NumKmers:       int(ck.KmerNumCols),
			CandidatePairs: ck.OvCandPairs,
			KeptOverlaps:   ck.OvKeptOverlaps,
			Contained:      ck.OvContained,
		}
	}
	switch ck.Stage {
	case StageCountKmer:
		rs.Kmers = &kmer.Result{
			K: int(ck.KmerK), NumCols: int(ck.KmerNumCols), Occurrences: ck.KmerOccurrences,
			Cols: ck.KmerCols,
		}
	case StageDetectOverlap:
		rs.Candidates = spmat.FromLocalTriples(rs.Grid, ck.CandNR, ck.CandNC, ck.CandTriples)
	case StageAlignment:
		rs.Overlap.R = spmat.FromLocalTriples(rs.Grid, ck.RNR, ck.RNC, ck.RTriples)
	case StageTrReduction:
		rs.StringGraph = spmat.FromLocalTriples(rs.Grid, ck.SGNR, ck.SGNC, ck.SGTriples)
		rs.TRStats = tr.Stats{
			Iterations:   int(ck.TRIterations),
			EdgesRemoved: ck.TREdgesRemoved,
			Products:     ck.TRProducts,
		}
	}
}

// checkpointAfter reports whether the engine checkpoints after this stage.
// The final stage never checkpoints: its output is the run result.
func (e *Engine) checkpointAfter(stage string) bool {
	if e.opt.CheckpointDir == "" || stage == StageExtractContig {
		return false
	}
	switch e.opt.CheckpointEvery {
	case "", "all":
		return true
	}
	return e.opt.CheckpointEvery == stage
}

// writeCheckpoint persists the artifacts' current resume point (steps 1–3 of
// the commit protocol above). Called by resume between a stage's completion
// and its observers, on every process of the world; collective on the
// control plane.
func (e *Engine) writeCheckpoint(ctx context.Context, a *Artifacts) error {
	stage := a.Stage()
	stageDir := filepath.Join(e.opt.CheckpointDir, stage)
	if err := os.MkdirAll(stageDir, 0o777); err != nil {
		return fmt.Errorf("pipeline: checkpoint after %q: %w", stage, err)
	}
	var mu sync.Mutex
	var errs []error
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		errs = append(errs, err)
	}
	runErr := a.World.RunCtx(ctx, func(c *mpi.Comm) {
		rank := c.Rank()
		frame := wire.MarshalOne(a.rankCheckpoint(rank))
		sum := sha256.Sum256(frame)
		hash := hex.EncodeToString(sum[:])
		path := filepath.Join(stageDir, rankFile(rank))
		if err := WriteFileAtomic(path, frame); err != nil {
			fail(fmt.Errorf("pipeline: checkpoint rank %d: %w", rank, err))
			hash = "" // rank 0 sees the hole and never commits the manifest
		}
		ctl := a.ctl[rank]
		parts := mpi.Gatherv(ctl, 0, []byte(hash))
		if ctl.Rank() != 0 {
			return
		}
		hashes := make([]string, e.opt.P)
		for r, part := range parts {
			hashes[ctl.WorldRank(r)] = string(part)
		}
		for r, h := range hashes {
			if h == "" {
				fail(fmt.Errorf("pipeline: checkpoint after %q not committed: rank %d reported no content hash (its write failed; see that process's log)", stage, r))
				return
			}
		}
		man := CheckpointManifest{
			Schema: CheckpointSchema, Stage: stage,
			Done: StageNames()[:a.done],
			P:    e.opt.P, Fingerprint: e.opt.FingerprintThrough(stage),
			ReadsChecksum: obs.ChecksumSeqs(a.Reads),
			RankHashes:    hashes,
			WallNS:        int64(a.wall),
		}
		blob, err := json.MarshalIndent(man, "", "  ")
		if err != nil {
			fail(fmt.Errorf("pipeline: checkpoint manifest: %w", err))
			return
		}
		if err := WriteFileAtomic(filepath.Join(stageDir, CheckpointManifestName), append(blob, '\n')); err != nil {
			fail(fmt.Errorf("pipeline: committing checkpoint manifest: %w", err))
		}
	})
	if runErr != nil {
		return e.abortError(stage, a, runErr)
	}
	return errors.Join(errs...)
}

// LatestCheckpoint scans a checkpoint dir for the most advanced committed
// stage checkpoint (the longest completed-stage list whose MANIFEST.json
// exists) and returns its stage dir and manifest. Passing a stage dir
// itself (one directly containing MANIFEST.json) selects that stage — the
// operator override for resuming an earlier stage on purpose. A missing or
// empty dir — or one holding only uncommitted stage dirs — returns
// ("", nil, nil): no checkpoint, not an error, so a supervisor can ask
// before the first commit.
func LatestCheckpoint(dir string) (stageDir string, man *CheckpointManifest, err error) {
	if m, err := readManifest(dir); !errors.Is(err, fs.ErrNotExist) {
		if err != nil {
			return "", nil, err
		}
		return dir, m, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", nil, nil
		}
		return "", nil, fmt.Errorf("pipeline: scanning checkpoint dir: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		sd := filepath.Join(dir, ent.Name())
		m, err := readManifest(sd)
		if errors.Is(err, fs.ErrNotExist) {
			continue // uncommitted stage dir (interrupted attempt): ignore
		}
		if err != nil {
			return "", nil, err
		}
		if man == nil || len(m.Done) > len(man.Done) {
			man, stageDir = m, sd
		}
	}
	return stageDir, man, nil
}

// readManifest decodes a stage dir's committed MANIFEST.json (an error
// wrapping fs.ErrNotExist when there is none) and fails closed on anything
// the engine cannot resume from: another schema, a stage that is never
// checkpointed, or a done list that is not exactly the stages through the
// manifest's stage — execution always continues a prefix of the table.
func readManifest(stageDir string) (*CheckpointManifest, error) {
	path := filepath.Join(stageDir, CheckpointManifestName)
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bad := func(format string, args ...any) (*CheckpointManifest, error) {
		return nil, fmt.Errorf("pipeline: checkpoint manifest %s: %s", path, fmt.Sprintf(format, args...))
	}
	var m CheckpointManifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return bad("%v", err)
	}
	if m.Schema != CheckpointSchema {
		return bad("schema %q (this build reads %q)", m.Schema, CheckpointSchema)
	}
	idx := slices.Index(StageNames(), m.Stage)
	switch {
	case idx < 0:
		return bad("names unknown stage %q", m.Stage)
	case idx == len(stages)-1:
		return bad("stage %q is never checkpointed", m.Stage)
	case !slices.Equal(m.Done, StageNames()[:idx+1]):
		return bad("done = %q is not the stages through %q", m.Done, m.Stage)
	}
	return &m, nil
}

// LoadCheckpoint builds Artifacts from the most advanced committed
// checkpoint under dir, on a fresh world of this engine's options: the
// resume point a crashed run left behind. reads must be the original input
// (verified against the manifest's checksum, like the options fingerprint —
// resuming under different parameters or data is refused, not silently
// wrong). The returned artifacts continue through Engine.ResumeFrom exactly
// like an in-memory snapshot, with bit-identical contigs and equal traffic
// counters to an undisturbed run.
//
// In a multi-process world every process must call LoadCheckpoint (the state
// rebuild communicates); each loads only its local ranks' files. A corrupt
// or truncated rank file fails the load everywhere, with the owning process
// naming the rank and file.
func (e *Engine) LoadCheckpoint(ctx context.Context, reads [][]byte, dir string) (*Artifacts, error) {
	stageDir, man, err := LatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if man == nil {
		return nil, fmt.Errorf("pipeline: no committed checkpoint under %s", dir)
	}
	if man.P != e.opt.P {
		return nil, fmt.Errorf("pipeline: checkpoint %s holds a %d-rank world; engine P = %d", stageDir, man.P, e.opt.P)
	}
	// The manifest carries the option prefix through its stage: options that
	// only stages downstream of the resume point consume (the TR sweep
	// parameters, for a post-Alignment checkpoint) may differ freely.
	if fp := e.opt.FingerprintThrough(man.Stage); man.Fingerprint != fp {
		return nil, fmt.Errorf("pipeline: checkpoint %s was written under different algorithmic options (fingerprint %.12s…, this engine %.12s… through %s); refusing to resume", stageDir, man.Fingerprint, fp, man.Stage)
	}
	if rc := obs.ChecksumSeqs(reads); man.ReadsChecksum != rc {
		return nil, fmt.Errorf("pipeline: checkpoint %s was written for a different read set (checksum %.12s…, these reads %.12s…); refusing to resume", stageDir, man.ReadsChecksum, rc)
	}
	if len(man.RankHashes) != e.opt.P {
		return nil, fmt.Errorf("pipeline: checkpoint manifest %s lists %d rank hashes, want %d", stageDir, len(man.RankHashes), e.opt.P)
	}
	a, err := newArtifacts(ctx, e.opt, reads)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var errs []error
	var peerFail atomic.Bool
	var shared atomic.Pointer[[]report]
	runErr := a.World.RunCtx(ctx, func(c *mpi.Comm) {
		rank := c.Rank()
		path := filepath.Join(stageDir, rankFile(rank))
		ck, err := readRankCheckpoint(path, man, rank, e.opt, reads)
		fail := func(err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
		// flag is failed, then each replicated value and its negation.
		flag := make([]int64, 1+2*len(replicatedNames))
		if err != nil {
			fail(err)
			flag[0] = 1
		} else {
			for i, v := range ck.replicated() {
				flag[1+2*i], flag[2+2*i] = v, -v
			}
		}
		// Phase 1 barrier: every rank — including ones whose file is bad —
		// joins this agreement, so a corrupt checkpoint can fail the load
		// without wedging a collective. It also takes each replicated value's
		// maximum and minimum, which must be equal. Phase 2 communicates only
		// when all ranks decoded cleanly and agree.
		agreed := mpi.AllreduceSlice(a.ctl[rank], flag, func(x, y int64) int64 { return max(x, y) })
		if agreed[0] > 0 {
			peerFail.Store(true)
			return
		}
		for i, name := range replicatedNames {
			if hi, lo, mine := agreed[1+2*i], -agreed[2+2*i], flag[1+2*i]; hi != lo {
				if mine != hi {
					fail(fmt.Errorf("pipeline: checkpoint rank %d: %s counts %d %s, another rank's file %d", rank, path, mine, name, hi))
				}
				peerFail.Store(true)
				return
			}
		}
		rs := a.Ranks[rank]
		stages[0].run(e.opt, a, rs) // FastaReader: the grid and the read store
		installRank(rs, ck)
		a.share(rank, &shared)
	})
	if runErr != nil {
		a.Close()
		return nil, fmt.Errorf("pipeline: loading checkpoint %s: %w", stageDir, runErr)
	}
	if len(errs) > 0 || peerFail.Load() {
		a.Close()
		if len(errs) > 0 {
			return nil, errors.Join(errs...)
		}
		return nil, fmt.Errorf("pipeline: checkpoint %s: a peer process failed to load its rank files (see its log)", stageDir)
	}
	a.done = len(man.Done)
	a.fold(shared.Load())
	a.wall = time.Duration(man.WallNS)
	return a, nil
}

// readRankCheckpoint loads and verifies one rank's file: content hash
// against the committed manifest first (so truncation or bit rot is caught
// before the codec sees the bytes), then the decoded self-description
// against the resuming engine, then the payload a later stage would otherwise
// trip over mid-collective. A checkpoint it returns satisfies every invariant
// the resume relies on:
//   - schema, rank, P, stage and options fingerprint are this build's, the
//     engine's and the manifest's;
//   - it carries no part that rankCheckpoint writes only for other stages
//     (strayPayload): the counters of the stages through its own, plus that
//     stage's own output;
//   - its k-mer column count lies in [0, the read set's k-mer window count]
//     — each reliable k-mer is a distinct window;
//   - a k-mer payload has the engine's K; a column range inside [0, the
//     column count]; columns that are a split panel
//     of that range over the read set (spmat.Columns.Check, the check
//     ColumnProduct makes) — so no (read, column) pair twice; and each
//     occurrence a window inside its read;
//   - a matrix payload (candidates, R or the string graph) is reads × reads,
//     and its triples lie in the rank's grid block in strict column-major
//     order, the canonical form FromLocalTriples and every later stage take;
//   - each cell of C is one the checkerboard keeps (spmat.CheckerboardKeeps:
//     off the diagonal, on its pair's kept side), and each value one or two
//     seeds the multiply can give its reads: a first key that is not empty,
//     keys that strictly ascend with bit 32 clear, each seed's k-base window
//     inside both reads (overlap.Seeds.Check, checkCands);
//   - each value of R is a dovetail alignment of its cell's two reads, and
//     each value of the string graph an edge those reads can give (checkAlns,
//     checkEdges), so no value panics inside a later collective;
//   - the run counters installRank copies into the Stats a resumed run
//     reports are ones a run can have (checkCounters).
//
// That the ranks agree on the values they each carry a copy of (the column
// count and the overlap counters) is LoadCheckpoint's check. Every failure
// names the rank and the file.
func readRankCheckpoint(path string, man *CheckpointManifest, rank int, opt Options, reads [][]byte) (*ckptRank, error) {
	frame, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: reading %s: %w", rank, path, err)
	}
	sum := sha256.Sum256(frame)
	if got := hex.EncodeToString(sum[:]); got != man.RankHashes[rank] {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s is corrupt or truncated: content hash %.12s… does not match the committed manifest (%.12s…)",
			rank, path, got, man.RankHashes[rank])
	}
	ck, err := wire.UnmarshalOne[ckptRank](frame)
	if err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: decoding %s: %w", rank, path, err)
	}
	if ck.Schema != ckptSchema {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s has schema %d (this build reads %d)", rank, path, ck.Schema, ckptSchema)
	}
	if int(ck.Rank) != rank || int(ck.P) != opt.P {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s describes rank %d of a %d-rank world (want rank %d of %d)",
			rank, path, ck.Rank, ck.P, rank, opt.P)
	}
	if ck.Stage != man.Stage {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s snapshots stage %q, manifest committed %q",
			rank, path, ck.Stage, man.Stage)
	}
	if fp := opt.FingerprintThrough(man.Stage); ck.Fingerprint != fp {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s carries options fingerprint %.12s…, engine has %.12s… through %s",
			rank, path, ck.Fingerprint, fp, man.Stage)
	}
	if err := checkCounters(&ck, len(reads)); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s: %w", rank, path, err)
	}
	if windows := kmerWindows(reads, opt.K); ck.KmerNumCols < 0 || int64(ck.KmerNumCols) > windows {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s counts %d k-mer columns, outside [0, %d] (the reads' k-mer windows)",
			rank, path, ck.KmerNumCols, windows)
	}
	if part := ck.strayPayload(); part != "" {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s carries %s, a payload other than stage %q's", rank, path, part, ck.Stage)
	}
	if ck.Stage == StageCountKmer {
		if int(ck.KmerK) != opt.K {
			return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s holds k-mers of k = %d, engine has k = %d", rank, path, ck.KmerK, opt.K)
		}
		a := ck.KmerCols
		err := a.Check(int32(len(reads))) // what ColumnProduct would panic on inside the stage
		if a.Lo < 0 || a.Lo > a.Hi || a.Hi > ck.KmerNumCols {
			err = fmt.Errorf("column range [%d,%d) is outside [0,%d)", a.Lo, a.Hi, ck.KmerNumCols)
		}
		if err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s: k-mer columns are not the rank's columns [%d,%d) of A over %d reads: %w",
				rank, path, a.Lo, a.Hi, len(reads), err)
		}
		for i, row := range a.Rows {
			if pos := int(a.Vals[i].Pos()); pos+opt.K > len(reads[row]) {
				return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s: k-mer occurrence at %d is no window of read %d (length %d)",
					rank, path, pos, row, len(reads[row]))
			}
		}
	}
	switch ck.Stage {
	case StageDetectOverlap:
		err = checkBlock(ck.CandNR, ck.CandNC, ck.CandTriples, len(reads), opt.P, rank)
	case StageAlignment:
		err = checkBlock(ck.RNR, ck.RNC, ck.RTriples, len(reads), opt.P, rank)
	case StageTrReduction:
		err = checkBlock(ck.SGNR, ck.SGNC, ck.SGTriples, len(reads), opt.P, rank)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s: stage %q's matrix block is not the rank's canonical block: %w", rank, path, ck.Stage, err)
	}
	switch ck.Stage {
	case StageDetectOverlap:
		err = checkCands(ck.CandTriples, reads, opt.K)
	case StageAlignment:
		err = checkAlns(ck.RTriples, reads, opt.MaxOverhang)
	case StageTrReduction:
		err = checkEdges(ck.SGTriples, reads)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s: stage %q's matrix block holds a value its reads cannot have: %w", rank, path, ck.Stage, err)
	}
	return &ck, nil
}

// checkCounters reports a run counter of ck that no run over n reads can
// have: a negative one, contained reads that do not strictly ascend inside
// [0, n), or more kept overlaps than candidate pairs. The k-mer column
// count has a bound of its own (readRankCheckpoint).
func checkCounters(ck *ckptRank, n int) error {
	if min(ck.OvCandPairs, ck.OvKeptOverlaps, ck.KmerOccurrences, ck.TRIterations, ck.TREdgesRemoved, ck.TRProducts) < 0 {
		return fmt.Errorf("a run counter is negative (candidate pairs %d, kept overlaps %d, k-mer occurrences %d, TR iterations %d, edges removed %d, TR products %d)",
			ck.OvCandPairs, ck.OvKeptOverlaps, ck.KmerOccurrences, ck.TRIterations, ck.TREdgesRemoved, ck.TRProducts)
	}
	if ck.OvKeptOverlaps > ck.OvCandPairs {
		return fmt.Errorf("keeps %d overlaps of %d candidate pairs", ck.OvKeptOverlaps, ck.OvCandPairs)
	}
	prev := int32(-1)
	for i, r := range ck.OvContained {
		if r <= prev || int(r) >= n {
			return fmt.Errorf("contained read %d (entry %d) does not strictly ascend inside [0,%d)", r, i, n)
		}
		prev = r
	}
	return nil
}

// checkCands reports the first candidate of a restored block of C (whose
// cells lie in the grid block already) that the multiply cannot have formed:
// a cell the checkerboard masks, or seeds that are no one or two shared
// k-mers of its reads (overlap.Seeds.Check) — which alignment would
// otherwise slice a read with, past its end.
func checkCands(ts []spmat.Triple[overlap.Seeds], reads [][]byte, k int) error {
	for i, t := range ts {
		if !spmat.CheckerboardKeeps(t.Row, t.Col) {
			return fmt.Errorf("triple %d (%d,%d) is a cell the checkerboard masks (the diagonal, or the dropped direction of its pair)", i, t.Row, t.Col)
		}
		if err := t.Val.Check(int32(len(reads[t.Row])), int32(len(reads[t.Col])), int32(k)); err != nil {
			return fmt.Errorf("triple %d (%d,%d): %w", i, t.Row, t.Col, err)
		}
	}
	return nil
}

// checkAlns reports the first alignment of a restored block of R (whose
// cells lie in the grid block already) that is not what pruning leaves at
// its cell: an alignment of the cell's row read against its column read, of
// their lengths, over a range of each read's bases, classified a
// dovetail under maxOverhang — what the string graph's construction and
// transitive reduction would otherwise panic on inside a collective.
func checkAlns(ts []spmat.Triple[bidir.Aln], reads [][]byte, maxOverhang int32) error {
	p := bidir.Params{MaxOverhang: maxOverhang}
	for i, t := range ts {
		a := t.Val
		lu, lv := int32(len(reads[t.Row])), int32(len(reads[t.Col]))
		switch {
		case a.U != t.Row || a.V != t.Col:
			return fmt.Errorf("triple %d (%d,%d) aligns reads %d and %d", i, t.Row, t.Col, a.U, a.V)
		case a.LU != lu || a.LV != lv:
			return fmt.Errorf("triple %d (%d,%d) gives read lengths %d and %d, the reads have %d and %d", i, t.Row, t.Col, a.LU, a.LV, lu, lv)
		case a.BU < 0 || a.BU > a.EU || a.EU > lu || a.BV < 0 || a.BV > a.EV || a.EV > lv:
			return fmt.Errorf("triple %d (%d,%d) aligns [%d,%d) of %d bases with [%d,%d) of %d", i, t.Row, t.Col, a.BU, a.EU, lu, a.BV, a.EV, lv)
		}
		if _, kind := bidir.Classify(a, p); kind != bidir.Dovetail {
			return fmt.Errorf("triple %d (%d,%d) is no dovetail under MaxOverhang %d (kind %d)", i, t.Row, t.Col, maxOverhang, kind)
		}
	}
	return nil
}

// checkEdges reports the first edge of a restored block of the string graph
// S (whose cells lie in the grid block already) that classification cannot
// have made from its reads: a direction above 3, an overhang outside [0, the
// column read's length], or a Pre or Post outside [-1, its read's length] —
// the inclusive indexes one base before or past a read included.
func checkEdges(ts []spmat.Triple[bidir.Edge], reads [][]byte) error {
	for i, t := range ts {
		e := t.Val
		lu, lv := int32(len(reads[t.Row])), int32(len(reads[t.Col]))
		if e.Dir > 3 || e.Suf < 0 || e.Suf > lv || e.Pre < -1 || e.Pre > lu || e.Post < -1 || e.Post > lv {
			return fmt.Errorf("triple %d (%d,%d) holds edge %+v, which reads of %d and %d bases cannot give", i, t.Row, t.Col, e, lu, lv)
		}
	}
	return nil
}

// checkBlock reports a restored matrix block whose dims are not n × n, for
// n reads, or whose triples do not lie, strictly column-major, in the grid
// block that rank owns in a world of p ranks.
func checkBlock[T any](nr, nc int32, ts []spmat.Triple[T], n, p, rank int) error {
	if int(nr) != n || int(nc) != n {
		return fmt.Errorf("dims %d×%d, want %d×%d (the reads)", nr, nc, n, n)
	}
	dim := isqrt(p)
	rlo, rhi := grid.BlockRange(n, dim, rank/dim)
	clo, chi := grid.BlockRange(n, dim, rank%dim)
	return spmat.CheckColMajor(ts, int32(rlo), int32(rhi), int32(clo), int32(chi))
}

// kmerWindows counts the read set's k-mer windows: an upper bound on its
// distinct k-mers, hence on the reliable k-mer columns.
func kmerWindows(reads [][]byte, k int) int64 {
	var n int64
	for _, r := range reads {
		n += int64(max(len(r)-k+1, 0))
	}
	return n
}

// WriteFileAtomic writes data crash-consistently: temp file in the target's
// dir, fsync, rename, fsync of the dir. Readers see either the old file or
// the complete new one, never a torn write. Every commit marker goes through
// this one function: checkpoint frames and manifests, and so the artifact
// cache's entries in internal/serve, which an Alignment MANIFEST.json commits.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself (the commit point must survive power loss).
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
