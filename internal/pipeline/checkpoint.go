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

// CheckpointSchema identifies the on-disk checkpoint layout version. v2
// switched the embedded options fingerprint from the full option set to the
// prefix through the checkpointed stage (FingerprintThrough), so a
// post-Alignment checkpoint resumes under different TR parameters — the
// sweep-reuse semantics the artifact cache is built on. v3 made two layouts of
// the post-CountKmer state load-bearing: the k-mer occurrence is one packed
// word (kmer.Occur: position<<1 | strand) and KmerTriples are strictly
// row-major, the order DetectOverlap builds A from without sorting. v4 made
// the rank files' timer rows the run's traffic totals (the manifest carries
// none): every stage, FastaReader included, has a row, and a v3 file lacks
// FastaReader's, so its totals would come out short. v5 stores KmerTriples
// row-grouped — rows ascending, each read's columns distinct, in extraction
// order — because DetectOverlap sorts A once itself, as spmat.FromRows
// scatters it into its SUMMA panels: a v4 reader would refuse such a file as
// out of order, so it carries a schema of its own. Older checkpoints and
// cache entries are refused by name, never reinterpreted.
const CheckpointSchema = "elba/checkpoint/v5"

// ckptSchema is the per-rank file's schema number (bumped with ckptRank).
const ckptSchema uint32 = 5

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
// Async, Transport, Trace, Metrics, the checkpoint settings themselves) never
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
// still consume are populated — see rankCheckpoint.
type ckptRank struct {
	Schema      uint32
	Rank, P     int32
	Fingerprint string
	Stage       string
	Timers      []trace.Record

	HasOverlap     bool
	OvNumReads     int64
	OvNumKmers     int64
	OvCandPairs    int64
	OvKeptOverlaps int64
	OvContained    []int32

	HasKmers        bool
	KmerK           int32
	KmerNumCols     int32
	KmerOccurrences int64
	KmerTriples     []kmer.ATriple

	HasCands    bool
	CandNR      int32
	CandNC      int32
	CandTriples []spmat.Triple[overlap.Seeds]

	HasR     bool
	RNR, RNC int32
	RTriples []spmat.Triple[bidir.Aln]

	HasSG      bool
	SGNR, SGNC int32
	SGTriples  []spmat.Triple[bidir.Edge]

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
	if rs.Overlap != nil {
		ck.HasOverlap = true
		ck.OvNumReads = int64(rs.Overlap.NumReads)
		ck.OvNumKmers = int64(rs.Overlap.NumKmers)
		ck.OvCandPairs = rs.Overlap.CandidatePairs
		ck.OvKeptOverlaps = rs.Overlap.KeptOverlaps
		ck.OvContained = rs.Overlap.Contained
	}
	switch a.Stage() {
	case StageCountKmer:
		ck.HasKmers = true
		ck.KmerK = int32(rs.Kmers.K)
		ck.KmerNumCols = int32(rs.Kmers.NumCols)
		ck.KmerOccurrences = rs.Kmers.Occurrences
		ck.KmerTriples = rs.Kmers.Triples
	case StageDetectOverlap:
		ck.HasCands = true
		ck.CandNR, ck.CandNC = rs.Candidates.NR, rs.Candidates.NC
		ck.CandTriples = rs.Candidates.Local.Ts
	case StageAlignment:
		ck.HasR = true
		ck.RNR, ck.RNC = rs.Overlap.R.NR, rs.Overlap.R.NC
		ck.RTriples = rs.Overlap.R.Local.Ts
	case StageTrReduction:
		ck.HasSG = true
		ck.SGNR, ck.SGNC = rs.StringGraph.NR, rs.StringGraph.NC
		ck.SGTriples = rs.StringGraph.Local.Ts
		ck.TRIterations = int64(rs.TRStats.Iterations)
		ck.TREdgesRemoved = rs.TRStats.EdgesRemoved
		ck.TRProducts = rs.TRStats.Products
	}
	return ck
}

// installRank writes a decoded checkpoint into rs. The caller has already
// rebuilt rs.Grid and rs.Store (the only artifact fields whose construction
// communicates).
func installRank(rs *RankState, ck *ckptRank) {
	rs.Timers = trace.FromRecords(ck.Timers)
	if ck.HasOverlap {
		rs.Overlap = &overlap.Result{
			NumReads:       int(ck.OvNumReads),
			NumKmers:       int(ck.OvNumKmers),
			CandidatePairs: ck.OvCandPairs,
			KeptOverlaps:   ck.OvKeptOverlaps,
			Contained:      ck.OvContained,
		}
	}
	if ck.HasKmers {
		rs.Kmers = &kmer.Result{
			K: int(ck.KmerK), NumCols: int(ck.KmerNumCols),
			Triples: ck.KmerTriples, Occurrences: ck.KmerOccurrences,
		}
	}
	if ck.HasCands {
		rs.Candidates = spmat.FromLocalTriples(rs.Grid, ck.CandNR, ck.CandNC, ck.CandTriples)
	}
	if ck.HasR {
		rs.Overlap.R = spmat.FromLocalTriples(rs.Grid, ck.RNR, ck.RNC, ck.RTriples)
	}
	if ck.HasSG {
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
		flag := []int64{0, 0, 0} // failed, k-mer column count, its negation
		if err != nil {
			fail(err)
			flag[0] = 1
		} else if ck.HasKmers {
			flag[1], flag[2] = int64(ck.KmerNumCols), -int64(ck.KmerNumCols)
		}
		// Phase 1 barrier: every rank — including ones whose file is bad —
		// joins this agreement, so a corrupt checkpoint can fail the load
		// without wedging a collective. It also takes the k-mer column
		// count's maximum and minimum, which must be equal: the count sizes
		// A on every rank. Phase 2 communicates only when all ranks decoded
		// cleanly and agree.
		agreed := mpi.AllreduceSlice(a.ctl[rank], flag, func(x, y int64) int64 { return max(x, y) })
		if agreed[0] > 0 {
			peerFail.Store(true)
			return
		}
		if hi, lo := agreed[1], -agreed[2]; hi != lo {
			if flag[1] != hi {
				fail(fmt.Errorf("pipeline: checkpoint rank %d: %s counts %d k-mer columns, another rank's file %d", rank, path, flag[1], hi))
			}
			peerFail.Store(true)
			return
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
//   - it carries exactly the payload rankCheckpoint writes for its stage: the
//     overlap counters after FastaReader, plus that stage's own output;
//   - a k-mer payload has the engine's K; a column count in [0, the read
//     set's k-mer window count] — each reliable k-mer is a distinct window,
//     and resuming sizes A's column index by this count; and triples that
//     are this rank's reads (block rank of the read set) in strict row-major
//     order, each column below the count and each occurrence a window inside
//     its read.
//
// That the ranks agree on the column count is LoadCheckpoint's check. Every
// failure names the rank and the file.
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
	if ck.HasOverlap != (ck.Stage != StageFastaReader) || ck.HasKmers != (ck.Stage == StageCountKmer) ||
		ck.HasCands != (ck.Stage == StageDetectOverlap) || ck.HasR != (ck.Stage == StageAlignment) ||
		ck.HasSG != (ck.Stage == StageTrReduction) {
		return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s carries a payload other than stage %q's", rank, path, ck.Stage)
	}
	if ck.HasKmers {
		if int(ck.KmerK) != opt.K {
			return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s holds k-mers of k = %d, engine has k = %d", rank, path, ck.KmerK, opt.K)
		}
		if windows := kmerWindows(reads, opt.K); ck.KmerNumCols < 0 || int64(ck.KmerNumCols) > windows {
			return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s counts %d k-mer columns, outside [0, %d] (the reads' k-mer windows)",
				rank, path, ck.KmerNumCols, windows)
		}
		lo, hi := grid.BlockRange(len(reads), opt.P, rank)
		if err := checkKmerTriples(ck.KmerTriples, int32(lo), int32(hi), ck.KmerNumCols); err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s: k-mer triples are not the rank's reads [%d,%d) grouped by row with distinct columns: %w",
				rank, path, lo, hi, err)
		}
		for _, t := range ck.KmerTriples {
			if pos := int(t.Val.Pos()); pos+opt.K > len(reads[t.Row]) {
				return nil, fmt.Errorf("pipeline: checkpoint rank %d: %s: k-mer occurrence at %d is no window of read %d (length %d)",
					rank, path, pos, t.Row, len(reads[t.Row]))
			}
		}
	}
	return &ck, nil
}

// checkKmerTriples reports the first triple of ts outside rows [lo, hi) ×
// columns [0, numCols), whose row goes backwards, or whose column its read
// already holds — everything spmat.FromRows, or the decode of the panels it
// builds, would otherwise panic on inside a collective. last stamps each column with 1 + the last row that held it,
// so the pass is O(len(ts) + numCols), and numCols is bounded by the reads'
// windows before this runs.
func checkKmerTriples(ts []kmer.ATriple, lo, hi, numCols int32) error {
	if err := spmat.CheckRowGrouped(ts, lo, hi, 0, numCols); err != nil {
		return err
	}
	last := make([]int32, numCols)
	for i, t := range ts {
		if last[t.Col] == t.Row+1 {
			return fmt.Errorf("triple %d (%d,%d) repeats column %d of read %d", i, t.Row, t.Col, t.Col, t.Row)
		}
		last[t.Col] = t.Row + 1
	}
	return nil
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
