package pipeline

// Durable-checkpoint suite: the checkpoint rows of the equivalence matrix
// (matrix_test.go) hold the on-disk resume path to the in-memory one; here a
// damaged or mismatched checkpoint must fail loudly, naming the rank and
// file, never producing output.

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/kmer"
	"repro/internal/mpi/wire"
	"repro/internal/overlap"
	"repro/internal/readsim"
	"repro/internal/spmat"
)

// TestCheckpointLatestWins checkpoints after every stage of one run and
// requires LoadCheckpoint to pick the most advanced committed stage, while a
// stage dir passed directly selects that stage.
func TestCheckpointLatestWins(t *testing.T) {
	reads := testReads(5000, 653)
	opt := DefaultOptions(1)
	opt.K = 21
	opt.XDrop = 25
	dir := t.TempDir()
	ckOpt := opt
	ckOpt.CheckpointDir = dir
	ckOpt.CheckpointEvery = "all"
	if _, err := Run(reads, ckOpt); err != nil {
		t.Fatal(err)
	}
	stageDir, man, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.Stage != StageTrReduction {
		t.Fatalf("latest checkpoint = %+v at %s, want stage %s", man, stageDir, StageTrReduction)
	}
	if want := StageNames()[:5]; len(man.Done) != len(want) {
		t.Fatalf("latest manifest done = %v, want %v", man.Done, want)
	}

	// Operator override: point straight at an earlier stage dir.
	eng, err := Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := eng.LoadCheckpoint(context.Background(), reads, filepath.Join(dir, StageCountKmer))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got := loaded.Stage(); got != StageCountKmer {
		t.Fatalf("stage-dir load resumes after %q, want %q", got, StageCountKmer)
	}
}

// TestCheckpointCorruption damages a committed checkpoint in each of the
// ways a real deployment sees — truncation, bit rot, deletion — and requires
// LoadCheckpoint to fail with an error naming the rank and the file, never
// to hang or produce artifacts.
func TestCheckpointCorruption(t *testing.T) {
	reads := testReads(5000, 659)
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	dir := t.TempDir()
	ckOpt := opt
	ckOpt.CheckpointDir = dir
	ckOpt.CheckpointEvery = StageCountKmer
	eng, err := Plan(ckOpt)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunUntil(context.Background(), reads, StageCountKmer)
	if err != nil {
		t.Fatal(err)
	}
	arts.Close()
	stageDir := filepath.Join(dir, StageCountKmer)
	victim := filepath.Join(stageDir, "rank-2.ckpt")
	pristine, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}

	load := func() error {
		fresh, err := Plan(opt)
		if err != nil {
			t.Fatal(err)
		}
		a, err := fresh.LoadCheckpoint(context.Background(), reads, dir)
		if err == nil {
			a.Close()
		}
		return err
	}
	damage := []struct {
		name  string
		mutie func(t *testing.T)
	}{
		{"truncated", func(t *testing.T) {
			if err := os.WriteFile(victim, pristine[:len(pristine)/2], 0o666); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", func(t *testing.T) {
			bad := append([]byte(nil), pristine...)
			bad[len(bad)/2] ^= 0x40
			if err := os.WriteFile(victim, bad, 0o666); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing", func(t *testing.T) {
			if err := os.Remove(victim); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			d.mutie(t)
			defer os.WriteFile(victim, pristine, 0o666)
			err := load()
			if err == nil {
				t.Fatal("corrupt checkpoint loaded without error")
			}
			if !strings.Contains(err.Error(), "rank 2") {
				t.Errorf("error does not name rank 2: %v", err)
			}
			if !strings.Contains(err.Error(), victim) {
				t.Errorf("error does not name the damaged file %s: %v", victim, err)
			}
		})
	}

	// Intact again: the load must succeed (guards the restore helper above).
	if err := load(); err != nil {
		t.Fatalf("pristine checkpoint refused: %v", err)
	}
}

// TestCheckpointRefusesMismatch: a checkpoint must only resume under the
// options and reads it was written for — mismatches are refused with an
// explanatory error, not silently wrong output.
func TestCheckpointRefusesMismatch(t *testing.T) {
	reads := testReads(5000, 661)
	opt := DefaultOptions(1)
	opt.K = 21
	opt.XDrop = 25
	dir := t.TempDir()
	ckOpt := opt
	ckOpt.CheckpointDir = dir
	eng, err := Plan(ckOpt)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunUntil(context.Background(), reads, StageCountKmer)
	if err != nil {
		t.Fatal(err)
	}
	arts.Close()

	refuse := func(t *testing.T, o Options, rds [][]byte, frag string) {
		t.Helper()
		e, err := Plan(o)
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.LoadCheckpoint(context.Background(), rds, dir)
		if err == nil {
			a.Close()
			t.Fatal("mismatched checkpoint accepted")
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("refusal lacks %q: %v", frag, err)
		}
	}
	t.Run("different options", func(t *testing.T) {
		o := opt
		o.K = 17
		refuse(t, o, reads, "different algorithmic options")
	})
	t.Run("different reads", func(t *testing.T) {
		refuse(t, opt, testReads(5000, 997), "different read set")
	})
	t.Run("different P", func(t *testing.T) {
		o := DefaultOptions(4)
		o.K = 21
		o.XDrop = 25
		refuse(t, o, reads, "1-rank world")
	})
	t.Run("no checkpoint", func(t *testing.T) {
		e, err := Plan(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.LoadCheckpoint(context.Background(), reads, t.TempDir()); err == nil ||
			!strings.Contains(err.Error(), "no committed checkpoint") {
			t.Errorf("empty dir load = %v, want a no-committed-checkpoint error", err)
		}
	})

	// Plumbing knobs are fingerprint-invariant: a sync engine resumes an
	// async checkpoint (results are bit-identical by the standing invariant).
	t.Run("async invariant", func(t *testing.T) {
		o := opt
		o.Async = !opt.Async
		e, err := Plan(o)
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.LoadCheckpoint(context.Background(), reads, dir)
		if err != nil {
			t.Fatalf("sync/async flip refused the checkpoint: %v", err)
		}
		a.Close()
	})
}

// TestFingerprintThrough pins the prefix-fingerprint contract the checkpoint
// validation and the serve-layer artifact cache share: options first consumed
// downstream of a stage do not enter that stage's prefix, options at or
// upstream of it do, and plumbing knobs never enter any prefix.
func TestFingerprintThrough(t *testing.T) {
	base := DefaultOptions(4)
	fp := base.FingerprintThrough(StageAlignment)

	downstream := base
	downstream.TRFuzz = 500
	downstream.TRMaxIter = 3
	downstream.PackSeqComm = true
	if got := downstream.FingerprintThrough(StageAlignment); got != fp {
		t.Error("TR/contig options changed the Alignment prefix fingerprint")
	}
	if got := downstream.Fingerprint(); got == base.Fingerprint() {
		t.Error("TR options do not change the full fingerprint")
	}

	plumbing := base
	plumbing.Threads = 7
	plumbing.Async = !base.Async
	plumbing.Transport = TransportTCP
	if got := plumbing.Fingerprint(); got != base.Fingerprint() {
		t.Error("plumbing knobs changed the fingerprint")
	}

	for name, mut := range map[string]func(*Options){
		"P":           func(o *Options) { o.P = 1 },
		"K":           func(o *Options) { o.K = 17 },
		"XDrop":       func(o *Options) { o.XDrop = 30 },
		"MaxOverhang": func(o *Options) { o.MaxOverhang = 999 },
		"Backend":     func(o *Options) { o.AlignBackend = BackendWFA },
	} {
		o := base
		mut(&o)
		if o.FingerprintThrough(StageAlignment) == fp {
			t.Errorf("%s change did not move the Alignment prefix fingerprint", name)
		}
	}
	if base.Fingerprint() != base.FingerprintThrough(StageExtractContig) {
		t.Error("Fingerprint() is not the full-graph prefix")
	}
}

// TestFingerprintThroughGolden pins every stage's prefix fingerprint to the
// digests committed checkpoints and cache keys on disk were written under: a
// digest that moves orphans them all.
func TestFingerprintThroughGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  Options
		want []string // one per stage, in StageNames order
	}{
		{"DefaultOptions(4)", DefaultOptions(4), []string{
			"2f43e2b680c6511a4f3ca107265fe7d6b3cefe5138d3da308e92c6ae858248b4",
			"839ce2f375ee35c99d6a669838cd6c10cf71aec6aa2c84f1071ca4c23bba28cc",
			"7287fbff12709414ea3d59984d7b588782146e97b3c85c6fa5b0c6a260334b49",
			"f15dd587e852b42827cdaea89da9dd079b006845ec08822009a5747d726ab3df",
			"5c6e52aaece64101544121e020da111c18702f0e7228b5a64ee6341bf459d062",
			"32e95ed0e9438d93114c0a4053f7465e0466d5b4b74202ee57f8e8c8fe9af88a",
		}},
		{"PresetOptions(HSapiensLike, 9)", PresetOptions(readsim.HSapiensLike, 9), []string{
			"2c63e1a9b123b01203ec85b6312a6564bd121a0ff5e1a8bf10a0f7f850b49294",
			"b545e0c10cb28b5f1b711e0105462748d45088b25c2c9eaa5d1e00ac749479ce",
			"abf467f5c70059fbfe9d17a1d59caad3b9771edbe0b2d08024cdb09a54161543",
			"c99da73f7b089c08103df6af59d0de68300486f6e0a1d75ba85f10c0a1e133a9",
			"43c0e6afe815f360f6080071ea6e9e76a682efa144c8f94d098f4b784ef4b818",
			"2591e93aaa2e5c910fc2a55456dcdb57edb59d697ceadb7349958544e066c17d",
		}},
	} {
		for i, stage := range StageNames() {
			if got := c.opt.FingerprintThrough(stage); got != c.want[i] {
				t.Errorf("%s through %s: %s, want %s", c.name, stage, got, c.want[i])
			}
		}
	}
}

// TestRankCheckpointFingerprintGolden pins the wire fingerprint every rank
// checkpoint file is stamped with: a codec change that moves it makes every
// committed checkpoint unreadable, so it must come with a ckptSchema bump.
func TestRankCheckpointFingerprintGolden(t *testing.T) {
	if got, want := wire.Fingerprint[ckptRank](), uint32(0x38fb490b); got != want {
		t.Errorf("ckptRank fingerprint 0x%08x, want 0x%08x", got, want)
	}
}

// TestCheckpointPrefixResume is the sweep-reuse contract: a post-Alignment
// checkpoint must resume under changed TR parameters (downstream of the
// resume point) and reproduce a cold run at those parameters exactly, while
// an in-prefix change (MaxOverhang feeds the Alignment-stage overlap
// classification) is still refused.
func TestCheckpointPrefixResume(t *testing.T) {
	reads := testReads(5000, 673)
	base := DefaultOptions(4)
	base.K = 21
	base.XDrop = 25
	dir := t.TempDir()
	ckOpt := base
	ckOpt.CheckpointDir = dir
	ckOpt.CheckpointEvery = StageAlignment
	eng, err := Plan(ckOpt)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunUntil(context.Background(), reads, StageAlignment)
	if err != nil {
		t.Fatal(err)
	}
	arts.Close()

	swept := base
	swept.TRFuzz = 400
	swept.TRMaxIter = 5
	cold, err := Run(reads, swept)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Plan(swept)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := fresh.LoadCheckpoint(context.Background(), reads, dir)
	if err != nil {
		t.Fatalf("post-Alignment checkpoint refused a downstream-only option change: %v", err)
	}
	defer loaded.Close()
	fin, err := fresh.ResumeFrom(context.Background(), loaded, StageExtractContig)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fin.Output()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, cold, out, "prefix resume under swept TR options")

	inPrefix := base
	inPrefix.MaxOverhang = 999
	e, err := Plan(inPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := e.LoadCheckpoint(context.Background(), reads, dir); err == nil {
		a.Close()
		t.Fatal("in-prefix option change (MaxOverhang) accepted a post-Alignment checkpoint")
	} else if !strings.Contains(err.Error(), "different algorithmic options") {
		t.Errorf("refusal lacks the options message: %v", err)
	}
}

// TestResumeAcrossColumnRenumbering relabels the k-mer columns of a
// post-CountKmer checkpoint by a random permutation of each rank's own column
// range — what a build that numbers its k-mers another way would have
// written — lays each block out again (through its triples, re-sorted
// column-major), and resumes it: the contigs, every row but DetectOverlap and
// that row's products are those of a cold run. C = A·Aᵀ, its seeds and its
// product count do not depend on column order, so a schema v7 checkpoint or
// cache entry written under another numbering resumes to the same assembly.
func TestResumeAcrossColumnRenumbering(t *testing.T) {
	reads := testReads(5000, 673)
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	cold, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckOpt := opt
	ckOpt.CheckpointDir = dir
	ckOpt.CheckpointEvery = StageCountKmer
	eng, err := Plan(ckOpt)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunUntil(context.Background(), reads, StageCountKmer)
	if err != nil {
		t.Fatal(err)
	}
	arts.Close()
	rng := rand.New(rand.NewSource(29))
	stageDir := filepath.Join(dir, StageCountKmer)
	moved := 0
	for r := range opt.P {
		rewriteRankFile(t, stageDir, r, func(ck *ckptRank) {
			lo, hi := ck.KmerCols.Lo, ck.KmerCols.Hi
			perm := rng.Perm(int(hi - lo))
			ts := ck.KmerCols.Triples()
			for i, tr := range ts {
				ts[i].Col = lo + int32(perm[tr.Col-lo])
				if ts[i].Col != tr.Col {
					moved++
				}
			}
			slices.SortFunc(ts, func(a, b kmer.ATriple) int {
				return cmp.Or(cmp.Compare(a.Col, b.Col), cmp.Compare(a.Row, b.Row))
			})
			ck.KmerCols = spmat.ColumnsFromTriples(lo, hi, ts)
		})
	}
	if moved == 0 {
		t.Fatal("the permutation moved no column")
	}
	fresh, err := Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := fresh.LoadCheckpoint(context.Background(), reads, dir)
	if err != nil {
		t.Fatalf("relabelled checkpoint refused: %v", err)
	}
	defer loaded.Close()
	fin, err := fresh.ResumeFrom(context.Background(), loaded, StageExtractContig)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fin.Output()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, cold, out, "resume of relabelled columns", StageDetectOverlap)
	if a, b := cold.Stats.Timers.Get(StageDetectOverlap).SumWork, out.Stats.Timers.Get(StageDetectOverlap).SumWork; a != b {
		t.Fatalf("DetectOverlap work %d after relabelling the columns, cold run %d", b, a)
	}
}

// TestCheckpointEveryValidation covers the CheckpointEvery option gate.
func TestCheckpointEveryValidation(t *testing.T) {
	opt := DefaultOptions(1)
	opt.CheckpointDir = t.TempDir()
	for _, ok := range []string{"", "all", StageCountKmer, StageTrReduction} {
		opt.CheckpointEvery = ok
		if err := opt.Validate(); err != nil {
			t.Errorf("CheckpointEvery=%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"bogus", StageExtractContig} {
		opt.CheckpointEvery = bad
		if err := opt.Validate(); err == nil {
			t.Errorf("CheckpointEvery=%q accepted", bad)
		}
	}
	opt.CheckpointDir = ""
	opt.CheckpointEvery = "all"
	if err := opt.Validate(); err == nil {
		t.Error("CheckpointEvery without CheckpointDir accepted")
	}
}

// rewriteManifest edits the committed manifest of a stage checkpoint in place.
func rewriteManifest(t *testing.T, stageDir string, edit func(*CheckpointManifest)) {
	t.Helper()
	path := filepath.Join(stageDir, CheckpointManifestName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man CheckpointManifest
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	edit(&man)
	if blob, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o666); err != nil {
		t.Fatal(err)
	}
}

// rewriteRankFile edits one rank's decoded checkpoint and commits the new
// content hash to the manifest — a file that is internally consistent and
// passes every integrity check, so only validation of its content can refuse
// it.
func rewriteRankFile(t *testing.T, stageDir string, rank int, edit func(*ckptRank)) {
	t.Helper()
	path := filepath.Join(stageDir, rankFile(rank))
	frame, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wire.UnmarshalOne[ckptRank](frame)
	if err != nil {
		t.Fatal(err)
	}
	edit(&ck)
	frame = wire.MarshalOne(ck)
	if err := os.WriteFile(path, frame, 0o666); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(frame)
	rewriteManifest(t, stageDir, func(m *CheckpointManifest) { m.RankHashes[rank] = hex.EncodeToString(sum[:]) })
}

// TestCheckpointFailsClosedOnSchemaAndOrder: the packed Occur word is
// load-bearing since schema v3, the rank files' timer rows (FastaReader's
// included) are the run's traffic totals since v4, A's triples were
// row-grouped in v5 and the rank's columns of A since v6, and since v7 A is
// stored as the rank's spmat.Columns and C's values as packed seed pairs,
// and since v8 the stage names the payload and no read count is stored, so
// (1) a directory committed under an older schema — manifest or rank file —
// is refused with an error naming both schemas, and (2) a post-CountKmer
// checkpoint whose columns are not a split panel (rows swapped, repeated or
// in the wrong sub-run, a run bound past the entries), name a read outside
// the read set, claim columns their run bounds do not hold, or whose range
// passes the column count, is refused at load, naming rank and file, instead
// of panicking inside DetectOverlap's multiply — and so is (3) one whose
// column count is negative, exceeds the reads' k-mer windows or differs
// between ranks, whose occurrence is no window of its read, whose k is not
// the engine's, or that carries another stage's payload, and (4) a
// post-DetectOverlap one holding a cell the checkerboard masks or seeds
// that are no shared k-mers of the cell's reads, which alignment would
// otherwise slice past a read's end with.
func TestCheckpointFailsClosedOnSchemaAndOrder(t *testing.T) {
	reads := testReads(5000, 673)
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	writeThrough := func(t *testing.T, stage string) (dir, stageDir string) {
		dir = t.TempDir()
		ckOpt := opt
		ckOpt.CheckpointDir = dir
		eng, err := Plan(ckOpt)
		if err != nil {
			t.Fatal(err)
		}
		arts, err := eng.RunUntil(context.Background(), reads, stage)
		if err != nil {
			t.Fatal(err)
		}
		arts.Close()
		return dir, filepath.Join(dir, stage)
	}
	write := func(t *testing.T) (dir, stageDir string) { return writeThrough(t, StageCountKmer) }
	refused := func(t *testing.T, dir string, frags ...string) error {
		t.Helper()
		eng, err := Plan(opt)
		if err != nil {
			t.Fatal(err)
		}
		a, err := eng.LoadCheckpoint(context.Background(), reads, dir)
		if err == nil {
			a.Close()
			t.Fatal("checkpoint loaded without error")
		}
		for _, frag := range frags {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("refusal lacks %q: %v", frag, err)
			}
		}
		return err
	}
	for _, old := range []uint32{2, 3, 4, 5, 6, 7} {
		schema := fmt.Sprintf("elba/checkpoint/v%d", old)
		t.Run(fmt.Sprintf("v%d manifest", old), func(t *testing.T) {
			dir, stageDir := write(t)
			rewriteManifest(t, stageDir, func(m *CheckpointManifest) { m.Schema = schema })
			refused(t, dir, fmt.Sprintf("schema %q", schema), `"elba/checkpoint/v8"`)
			// Naming the stage directory itself takes the other manifest path.
			refused(t, stageDir, fmt.Sprintf("schema %q", schema), `"elba/checkpoint/v8"`)
		})
		t.Run(fmt.Sprintf("v%d rank file", old), func(t *testing.T) {
			dir, stageDir := write(t)
			rewriteRankFile(t, stageDir, 1, func(ck *ckptRank) { ck.Schema = old })
			refused(t, dir, "rank 1", filepath.Join(stageDir, rankFile(1)), fmt.Sprintf("schema %d (this build reads 8)", old))
		})
	}
	// A rank's columns of A fail closed: each row would load silently (a
	// swapped, repeated or out-of-order row, which ColumnProduct's block
	// check then panics on inside the stage), index outside the read set or
	// the entries, or claim columns outside the rank's range.
	for name, edit := range map[string]func(t *testing.T, a *spmat.Columns[kmer.Occur], numCols int32){
		"out of order": func(t *testing.T, a *spmat.Columns[kmer.Occur], _ int32) {
			lo, hi := subRun(t, *a, 3)
			slices.Reverse(a.Rows[lo:hi])
		},
		"duplicate": func(t *testing.T, a *spmat.Columns[kmer.Occur], _ int32) {
			lo, _ := subRun(t, *a, 2)
			a.Rows[lo+1] = a.Rows[lo]
		},
		"column repeated apart within a read": func(t *testing.T, a *spmat.Columns[kmer.Occur], _ int32) {
			lo, _ := subRun(t, *a, 3)
			a.Rows[lo+2] = a.Rows[lo]
		},
		"column past the k-mer count": func(t *testing.T, a *spmat.Columns[kmer.Occur], numCols int32) {
			a.Lo, a.Hi = a.Lo+numCols+1-a.Hi, numCols+1 // the same columns, the last one numCols
		},
		"CountKmer/swapped": func(t *testing.T, a *spmat.Columns[kmer.Occur], _ int32) {
			lo, _ := subRun(t, *a, 2)
			a.Rows[lo], a.Rows[lo+1] = a.Rows[lo+1], a.Rows[lo]
		},
		"CountKmer/repeated cell": func(t *testing.T, a *spmat.Columns[kmer.Occur], _ int32) {
			_, hi := subRun(t, *a, 2)
			a.Rows[hi-1] = a.Rows[hi-2]
		},
		"CountKmer/read out of range": func(t *testing.T, a *spmat.Columns[kmer.Occur], _ int32) {
			a.Rows[len(a.Rows)-1] = int32(len(reads))
		},
		"CountKmer/out of block": func(t *testing.T, a *spmat.Columns[kmer.Occur], _ int32) {
			a.Lo-- // rank 1's last column, with no run of its own
		},
		"CountKmer/range past the k-mer count": func(t *testing.T, a *spmat.Columns[kmer.Occur], numCols int32) { a.Hi = numCols + 1 },
		"CountKmer/odd row in the even sub-run": func(t *testing.T, a *spmat.Columns[kmer.Occur], _ int32) {
			for c := range a.Mid {
				if a.Mid[c] < a.Starts[c+1] {
					a.Mid[c]++
					return
				}
			}
			t.Fatal("no column has an odd row")
		},
		"CountKmer/inner bound past the entries": func(t *testing.T, a *spmat.Columns[kmer.Occur], _ int32) {
			a.Starts[1] = int32(len(a.Rows)) + 5
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir, stageDir := write(t)
			rewriteRankFile(t, stageDir, 2, func(ck *ckptRank) { edit(t, &ck.KmerCols, ck.KmerNumCols) })
			err := refused(t, dir, "rank 2", filepath.Join(stageDir, rankFile(2)), "are not the rank's columns")
			// A restored block of A is no SUMMA panel, and its refusal says so.
			if strings.Contains(err.Error(), "SUMMA") {
				t.Errorf("refusal names a SUMMA panel: %v", err)
			}
		})
	}
	// The rest of the payload fails closed too: the column count, which
	// bounds every rank's column range, is bounded by the reads' k-mer
	// windows and must be the same on every rank; each occurrence is a window
	// of its read; and a file carries its stage's payload only.
	for name, c := range map[string]struct {
		edit func(ck *ckptRank)
		want string
	}{
		"negative column count":              {func(ck *ckptRank) { ck.KmerNumCols = -1 }, "-1 k-mer columns, outside [0,"},
		"column count past the windows":      {func(ck *ckptRank) { ck.KmerNumCols = math.MaxInt32 }, "k-mer columns, outside [0,"},
		"ranks disagree on the column count": {func(ck *ckptRank) { ck.KmerNumCols++ }, "another rank's file"},
		"occurrence past its read": {func(ck *ckptRank) {
			a, last := &ck.KmerCols, len(ck.KmerCols.Rows)-1
			a.Vals[last] = kmer.MakeOccur(int32(len(reads[a.Rows[last]])-opt.K+1), false)
		}, "is no window of read"},
		"another k":               {func(ck *ckptRank) { ck.KmerK++ }, "k = 22"},
		"another stage's payload": {func(ck *ckptRank) { ck.CandNR, ck.CandNC = int32(len(reads)), int32(len(reads)) }, `carries C, a payload other than stage "CountKmer"'s`},
	} {
		t.Run(name, func(t *testing.T) {
			dir, stageDir := write(t)
			rewriteRankFile(t, stageDir, 2, c.edit)
			refused(t, dir, stageDir, c.want)
		})
	}
	// So do the run counters a resumed run reports (installRank copies them
	// into its Stats): a negative counter, a k-mer count outside [0, the
	// reads' windows], contained reads that do not strictly ascend inside the
	// read set, more kept overlaps than candidate pairs, a replicated counter
	// the ranks disagree on, or a counter of a stage after the file's would
	// otherwise load silently. The read count is the read set's size, which
	// no file restates: a file naming a read past the set is refused. The
	// k-mer count is the column count, at CountKmer and after it.
	for _, c := range []struct {
		stage, name string
		edit        func(ck *ckptRank)
		want        string
	}{
		{StageCountKmer, "another read count", func(ck *ckptRank) { ck.KmerCols.Rows[0] = int32(len(reads)) + 1 },
			fmt.Sprintf("of A over %d reads", len(reads))},
		{StageCountKmer, "negative k-mer count", func(ck *ckptRank) { ck.KmerNumCols = -1 }, "-1 k-mer columns, outside [0,"},
		{StageCountKmer, "negative occurrences", func(ck *ckptRank) { ck.KmerOccurrences = -1 }, "a run counter is negative"},
		{StageCountKmer, "kept overlaps past the candidates", func(ck *ckptRank) { ck.OvKeptOverlaps = ck.OvCandPairs + 1 }, "keeps 1 overlaps of 0 candidate pairs"},
		{StageCountKmer, "ranks disagree on the k-mer count", func(ck *ckptRank) { ck.KmerNumCols-- }, "k-mer columns, another rank's file"},
		{StageCountKmer, "a candidate count", func(ck *ckptRank) { ck.OvCandPairs = 1 }, `carries a candidate count, a payload other than stage "CountKmer"'s`},
		{StageFastaReader, "a k-mer count", func(ck *ckptRank) { ck.KmerNumCols = 1 }, `carries a k-mer column count, a payload other than stage "FastaReader"'s`},
		{StageDetectOverlap, "contained reads", func(ck *ckptRank) { ck.OvContained = []int32{0} }, `carries overlap counts, a payload other than stage "DetectOverlap"'s`},
		{StageAlignment, "negative k-mer count", func(ck *ckptRank) { ck.KmerNumCols = -1 }, "-1 k-mer columns, outside [0,"},
		{StageAlignment, "ranks disagree on the k-mer count", func(ck *ckptRank) { ck.KmerNumCols++ }, "k-mer columns, another rank's file"},
		{StageAlignment, "TR counters", func(ck *ckptRank) { ck.TRIterations = 1 }, `carries the string graph, a payload other than stage "Alignment"'s`},
		{StageAlignment, "negative candidate count", func(ck *ckptRank) { ck.OvCandPairs = -1 }, "a run counter is negative"},
		{StageAlignment, "negative kept overlaps", func(ck *ckptRank) { ck.OvKeptOverlaps = -1 }, "a run counter is negative"},
		{StageAlignment, "contained reads out of order", func(ck *ckptRank) {
			c := ck.OvContained
			c[0], c[1] = c[1], c[0]
		}, "does not strictly ascend"},
		{StageAlignment, "contained read repeated", func(ck *ckptRank) { ck.OvContained[1] = ck.OvContained[0] }, "does not strictly ascend"},
		{StageAlignment, "contained read past the set", func(ck *ckptRank) {
			ck.OvContained = append(ck.OvContained, int32(len(reads)))
		}, fmt.Sprintf("inside [0,%d)", len(reads))},
		{StageAlignment, "ranks disagree on the candidate count", func(ck *ckptRank) { ck.OvCandPairs++ }, "candidate pairs, another rank's file"},
		{StageAlignment, "ranks disagree on the kept overlaps", func(ck *ckptRank) { ck.OvKeptOverlaps-- }, "kept overlaps, another rank's file"},
		{StageAlignment, "ranks disagree on the contained reads", func(ck *ckptRank) { ck.OvContained = ck.OvContained[1:] }, "contained reads, another rank's file"},
		{StageTrReduction, "negative TR iterations", func(ck *ckptRank) { ck.TRIterations = -1 }, "a run counter is negative"},
		{StageTrReduction, "negative edges removed", func(ck *ckptRank) { ck.TREdgesRemoved = -1 }, "a run counter is negative"},
		{StageTrReduction, "negative TR products", func(ck *ckptRank) { ck.TRProducts = -1 }, "a run counter is negative"},
	} {
		t.Run(c.stage+"/counters/"+c.name, func(t *testing.T) {
			dir, stageDir := writeThrough(t, c.stage)
			rewriteRankFile(t, stageDir, 2, c.edit)
			refused(t, dir, stageDir, c.want)
		})
	}
	// A matrix payload fails closed too: a block that would load silently (a
	// swapped or repeated cell), panic inside a later collective (a swap's
	// column order, dims one larger) or fail only as a rank panic (a triple
	// outside the rank's block) is refused at load, naming rank and file.
	for _, stage := range []string{StageDetectOverlap, StageAlignment, StageTrReduction} {
		for _, how := range []string{"swapped", "repeated cell", "out of block", "wrong dims"} {
			t.Run(stage+"/"+how, func(t *testing.T) {
				dir, stageDir := writeThrough(t, stage)
				rewriteRankFile(t, stageDir, 1, func(ck *ckptRank) {
					switch stage {
					case StageDetectOverlap:
						breakBlock(t, how, &ck.CandNR, &ck.CandNC, ck.CandTriples)
					case StageAlignment:
						breakBlock(t, how, &ck.RNR, &ck.RNC, ck.RTriples)
					default:
						breakBlock(t, how, &ck.SGNR, &ck.SGNC, ck.SGTriples)
					}
				})
				refused(t, dir, "rank 1", filepath.Join(stageDir, rankFile(1)), "matrix block is not the rank's canonical block")
			})
		}
	}
	// So does a bad value in a canonical block: an alignment of R or an edge
	// of the string graph that the reads cannot give would load silently and
	// panic inside a later collective (the string graph's construction, the
	// transitive reduction's packing) or feed contig generation garbage.
	for _, bad := range []struct {
		stage, name string
		edit        func(ck *ckptRank)
	}{
		{StageAlignment, "begin past end", func(ck *ckptRank) { a := &ck.RTriples[0].Val; a.BU = a.EU + 1 }},
		{StageAlignment, "end past the read", func(ck *ckptRank) { a := &ck.RTriples[0].Val; a.EV = a.LV + 1 }},
		{StageAlignment, "another read length", func(ck *ckptRank) { ck.RTriples[0].Val.LU++ }},
		{StageAlignment, "another cell's reads", func(ck *ckptRank) { a := &ck.RTriples[0].Val; a.U, a.V = a.V, a.U }},
		{StageAlignment, "no dovetail", func(ck *ckptRank) { a := &ck.RTriples[0].Val; a.BU, a.EU, a.BV, a.EV = 0, a.LU, 0, a.LV }},
		{StageTrReduction, "fifth direction", func(ck *ckptRank) { ck.SGTriples[0].Val.Dir = 4 }},
		{StageTrReduction, "negative overhang", func(ck *ckptRank) { ck.SGTriples[0].Val.Suf = -1 }},
		{StageTrReduction, "pre past the read", func(ck *ckptRank) { ck.SGTriples[0].Val.Pre = 1 << 30 }},
		{StageTrReduction, "post before the read", func(ck *ckptRank) { ck.SGTriples[0].Val.Post = -2 }},
	} {
		t.Run(bad.stage+"/bad value/"+bad.name, func(t *testing.T) {
			dir, stageDir := writeThrough(t, bad.stage)
			rewriteRankFile(t, stageDir, 1, bad.edit)
			refused(t, dir, "rank 1", filepath.Join(stageDir, rankFile(1)), "matrix block holds a value its reads cannot have", "triple 0 (")
		})
	}
	// And so does a candidate the multiply cannot form: a cell the
	// checkerboard masks (the diagonal, on rank 0's block; the dropped
	// direction of a pair, on rank 1's) or seeds that are no shared k-mers
	// of the cell's reads, which alignment would slice past a read's end
	// with inside the stage. Rank 1 holds rows [0, n/2) × columns [n/2, n),
	// where every kept cell has row and column of equal parity.
	noSeed := ^uint64(0)
	for _, bad := range []struct {
		name, want string
		rank       int
		edit       func(t *testing.T, ts []spmat.Triple[overlap.Seeds])
	}{
		{"diagonal", "checkerboard masks", 0, func(t *testing.T, ts []spmat.Triple[overlap.Seeds]) {
			ts[0].Row = ts[0].Col
			sortCells(t, ts)
		}},
		{"dropped direction", "checkerboard masks", 1, func(t *testing.T, ts []spmat.Triple[overlap.Seeds]) {
			ts[0].Row++
			if ts[0].Row == int32(len(reads)/2) {
				ts[0].Row -= 2
			}
			sortCells(t, ts)
		}},
		{"empty first slot", "first seed slot is empty", 1, func(t *testing.T, ts []spmat.Triple[overlap.Seeds]) { ts[0].Val[0] = noSeed }},
		{"keys not ascending", "do not strictly ascend", 1, func(t *testing.T, ts []spmat.Triple[overlap.Seeds]) { ts[0].Val[1] = ts[0].Val[0] }},
		{"bit 32 set", "has bit 32 set", 1, func(t *testing.T, ts []spmat.Triple[overlap.Seeds]) { ts[0].Val[0] |= 1 << 32 }},
		{"seed past the row read", "window ends past a read", 1, func(t *testing.T, ts []spmat.Triple[overlap.Seeds]) {
			ts[0].Val = overlap.Seeds{1 << 30 << 33, noSeed}
		}},
		{"seed past the column read", "window ends past a read", 1, func(t *testing.T, ts []spmat.Triple[overlap.Seeds]) {
			pv := uint64(len(reads[ts[0].Col]) - opt.K + 1)
			ts[0].Val = overlap.Seeds{pv << 1, noSeed}
		}},
	} {
		t.Run(StageDetectOverlap+"/bad seeds/"+bad.name, func(t *testing.T) {
			dir, stageDir := writeThrough(t, StageDetectOverlap)
			rewriteRankFile(t, stageDir, bad.rank, func(ck *ckptRank) { bad.edit(t, ck.CandTriples) })
			refused(t, dir, fmt.Sprintf("rank %d", bad.rank), filepath.Join(stageDir, rankFile(bad.rank)), "matrix block holds a value its reads cannot have", bad.want)
		})
	}
	// An untouched rewrite loads: the helpers themselves do not break a file.
	dir, stageDir := write(t)
	rewriteRankFile(t, stageDir, 2, func(*ckptRank) {})
	eng, err := Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.LoadCheckpoint(context.Background(), reads, dir)
	if err != nil {
		t.Fatalf("re-encoded checkpoint refused: %v", err)
	}
	a.Close()
}

// subRun returns the bounds [lo, hi) of the first sub-run of a's columns
// that holds at least m rows.
func subRun(t testing.TB, a spmat.Columns[kmer.Occur], m int) (lo, hi int) {
	t.Helper()
	for c := range a.Mid {
		for _, r := range [][2]int32{{a.Starts[c], a.Mid[c]}, {a.Mid[c], a.Starts[c+1]}} {
			if int(r[1]-r[0]) >= m {
				return int(r[0]), int(r[1])
			}
		}
	}
	t.Fatalf("no sub-run holds %d rows", m)
	return 0, 0
}

// sortCells puts a block of triples, one of whose cells an edit moved, back
// into strict column-major order, so only the moved cell's place in C — not
// the block's order — can refuse it.
func sortCells[T any](t testing.TB, ts []spmat.Triple[T]) {
	t.Helper()
	slices.SortFunc(ts, func(a, b spmat.Triple[T]) int {
		return cmp.Or(cmp.Compare(a.Col, b.Col), cmp.Compare(a.Row, b.Row))
	})
	if err := spmat.CheckColMajor(ts, 0, 1<<31-1, 0, 1<<31-1); err != nil {
		t.Fatalf("the moved cell collides with another: %v", err)
	}
}

// breakBlock applies one named corruption to rank 1's restored matrix block
// of a P = 4 world, which holds rows [0, n/2) × columns [n/2, n) of n reads.
func breakBlock[T any](t *testing.T, how string, nr, nc *int32, ts []spmat.Triple[T]) {
	t.Helper()
	if len(ts) < 2 {
		t.Fatalf("the block holds %d triples, too few to break", len(ts))
	}
	switch how {
	case "swapped":
		ts[0], ts[len(ts)-1] = ts[len(ts)-1], ts[0]
	case "repeated cell":
		ts[1] = ts[0]
	case "out of block":
		ts[0].Row, ts[0].Col = 0, 0
	case "wrong dims":
		*nr, *nc = *nr+1, *nc+1
	default:
		t.Fatalf("no corruption %q", how)
	}
}

// commitAlignmentCheckpoint assembles reads at P = 1 with a checkpoint
// committed after Alignment. It returns the options to resume under, the
// checkpoint dir and the run's output.
func commitAlignmentCheckpoint(tb testing.TB, reads [][]byte) (Options, string, *Output) {
	tb.Helper()
	opt := DefaultOptions(1)
	opt.K = 21
	opt.XDrop = 25
	ckOpt := opt
	ckOpt.CheckpointDir = tb.TempDir()
	ckOpt.CheckpointEvery = StageAlignment
	out, err := Run(reads, ckOpt)
	if err != nil {
		tb.Fatal(err)
	}
	return opt, ckOpt.CheckpointDir, out
}

// TestLoadCheckpointRefusesInconsistentManifest: execution always continues a
// prefix of the stages table, so a manifest whose done list is not exactly
// the stages through its stage, or that names ExtractContig (never
// checkpointed), is refused at load with an error naming the manifest —
// never resumed from a state the stages it lists did not produce.
func TestLoadCheckpointRefusesInconsistentManifest(t *testing.T) {
	reads := testReads(5000, 677)
	opt, dir, _ := commitAlignmentCheckpoint(t, reads)
	stageDir := filepath.Join(dir, StageAlignment)
	manPath := filepath.Join(stageDir, CheckpointManifestName)
	pristine, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(*CheckpointManifest)
	}{
		{"short done", func(m *CheckpointManifest) { m.Done = []string{StageFastaReader, StageCountKmer} }},
		{"reordered done", func(m *CheckpointManifest) { m.Done[0], m.Done[1] = m.Done[1], m.Done[0] }},
		{"final stage", func(m *CheckpointManifest) { m.Stage, m.Done = StageExtractContig, StageNames() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rewriteManifest(t, stageDir, c.edit)
			defer os.WriteFile(manPath, pristine, 0o666)
			a, err := eng.LoadCheckpoint(context.Background(), reads, dir)
			if err == nil {
				defer a.Close()
				_, rerr := eng.ResumeFrom(context.Background(), a, StageExtractContig)
				t.Fatalf("inconsistent manifest loaded as stage %q; resuming it: %v", a.Stage(), rerr)
			}
			if !strings.Contains(err.Error(), manPath) {
				t.Errorf("refusal does not name the manifest %s: %v", manPath, err)
			}
		})
	}
	// Restored, the manifest loads (guards the rewrite helper above).
	a, err := eng.LoadCheckpoint(context.Background(), reads, dir)
	if err != nil {
		t.Fatalf("pristine manifest refused: %v", err)
	}
	a.Close()
}

// FuzzLoadCheckpointManifest feeds arbitrary bytes to LoadCheckpoint as the
// MANIFEST.json of a committed P = 1 post-Alignment checkpoint. The input is
// a template: {{fingerprint}}, {{reads}} and {{rank0}} expand to the real
// checkpoint's values, so the committed seeds reach past the integrity checks
// (testdata/fuzz holds the real manifest and one seed per refusal).
// LoadCheckpoint must never panic or hang; when it accepts a manifest, the
// artifacts must resume after the manifest's stage and finish with the
// reference contigs.
func FuzzLoadCheckpointManifest(f *testing.F) {
	reads := testReads(5000, 677)
	opt, src, ref := commitAlignmentCheckpoint(f, reads)
	_, man, err := LatestCheckpoint(src)
	if err != nil || man == nil {
		f.Fatalf("no committed checkpoint (manifest %v, err %v)", man, err)
	}
	rank, err := os.ReadFile(filepath.Join(src, StageAlignment, rankFile(0)))
	if err != nil {
		f.Fatal(err)
	}
	expand := strings.NewReplacer("{{fingerprint}}", man.Fingerprint,
		"{{reads}}", man.ReadsChecksum, "{{rank0}}", man.RankHashes[0])
	eng, err := Plan(opt)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		blob = []byte(expand.Replace(string(blob)))
		dir := t.TempDir()
		stageDir := filepath.Join(dir, StageAlignment)
		if err := os.Mkdir(stageDir, 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stageDir, rankFile(0)), rank, 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stageDir, CheckpointManifestName), blob, 0o666); err != nil {
			t.Fatal(err)
		}
		a, err := eng.LoadCheckpoint(context.Background(), reads, dir)
		if err != nil {
			return
		}
		defer a.Close()
		var m CheckpointManifest
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatalf("loaded a manifest that does not decode: %v", err)
		}
		if a.Stage() != m.Stage {
			t.Fatalf("artifacts resume after %q, manifest commits %q", a.Stage(), m.Stage)
		}
		fin, err := eng.ResumeFrom(context.Background(), a, StageExtractContig)
		if err != nil {
			t.Fatalf("accepted manifest does not resume: %v", err)
		}
		out, err := fin.Output()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := contigChecksum(out), contigChecksum(ref); got != want {
			t.Fatalf("resumed contigs %s, reference %s", got, want)
		}
	})
}

// fuzzCkptReads is the read set behind FuzzReadRankCheckpoint: 300 bases at
// depth 3, so a P = 1 post-CountKmer rank file — and each committed seed —
// is a few kilobytes.
func fuzzCkptReads() [][]byte {
	genome := readsim.Genome(readsim.GenomeConfig{Length: 300, Seed: 683})
	return readsim.Seqs(readsim.Simulate(genome, readsim.ReadConfig{Depth: 3, MeanLen: 120, Seed: 684}))
}

// commitFuzzCheckpoint checkpoints fuzzCkptReads at P = 1 after stage and
// returns the options, the reads, the committed manifest and rank 0's file.
// The file must load and hold a payload.
func commitFuzzCheckpoint(f testing.TB, stage string) (Options, [][]byte, *CheckpointManifest, string) {
	f.Helper()
	reads := fuzzCkptReads()
	opt := DefaultOptions(1)
	opt.K = 21
	ckOpt := opt
	ckOpt.CheckpointDir = f.TempDir()
	ckOpt.CheckpointEvery = stage
	eng, err := Plan(ckOpt)
	if err != nil {
		f.Fatal(err)
	}
	arts, err := eng.RunUntil(context.Background(), reads, stage)
	if err != nil {
		f.Fatal(err)
	}
	arts.Close()
	stageDir, man, err := LatestCheckpoint(ckOpt.CheckpointDir)
	if err != nil || man == nil {
		f.Fatalf("no committed checkpoint (manifest %v, err %v)", man, err)
	}
	realFile := filepath.Join(stageDir, rankFile(0))
	ck, err := readRankCheckpoint(realFile, man, 0, opt, reads)
	if err != nil || ck.KmerCols.Nnz() == 0 && len(ck.CandTriples) < 2 {
		f.Fatalf("the committed rank file is refused (%v) or holds too small a payload", err)
	}
	return opt, reads, man, realFile
}

// fuzzRankFile runs readRankCheckpoint on frame as rank 0's file of man's
// checkpoint, with the manifest's hash recomputed for it, and returns what it
// accepts (nil for a refusal) after checking the self-description, that no
// part another stage writes is set, and the counters.
func fuzzRankFile(t *testing.T, path string, frame []byte, man *CheckpointManifest, opt Options, reads [][]byte) *ckptRank {
	if err := os.WriteFile(path, frame, 0o666); err != nil {
		t.Fatal(err)
	}
	m := *man
	sum := sha256.Sum256(frame)
	m.RankHashes = []string{hex.EncodeToString(sum[:])}
	ck, err := readRankCheckpoint(path, &m, 0, opt, reads)
	if err != nil {
		return nil
	}
	if ck.Schema != ckptSchema || ck.Rank != 0 || ck.P != 1 || ck.Stage != man.Stage || ck.Fingerprint != man.Fingerprint {
		t.Fatalf("accepted a file describing schema %d, rank %d of %d, stage %q, fingerprint %.12s…", ck.Schema, ck.Rank, ck.P, ck.Stage, ck.Fingerprint)
	}
	// The fuzzed stages, CountKmer and DetectOverlap, come before Alignment:
	// a file they accept holds its own stage's payload and nothing of a
	// later stage's.
	other := []int64{ck.OvKeptOverlaps, int64(len(ck.OvContained)), int64(len(ck.RTriples)), int64(len(ck.SGTriples)),
		ck.TRIterations, ck.TREdgesRemoved, ck.TRProducts}
	if man.Stage == StageCountKmer {
		other = append(other, ck.OvCandPairs, int64(len(ck.CandTriples)))
	} else {
		other = append(other, int64(ck.KmerK), ck.KmerOccurrences, int64(len(ck.KmerCols.Rows)))
	}
	if slices.ContainsFunc(other, func(v int64) bool { return v != 0 }) {
		t.Fatalf("accepted a %s file carrying another stage's payload %v", man.Stage, other)
	}
	if ck.KmerNumCols < 0 || ck.OvCandPairs < 0 || ck.KmerOccurrences < 0 {
		t.Fatalf("accepted %d k-mer columns, %d candidate pairs, %d occurrences", ck.KmerNumCols, ck.OvCandPairs, ck.KmerOccurrences)
	}
	return ck
}

// FuzzReadRankCheckpoint feeds arbitrary bytes to readRankCheckpoint as rank
// 0's file of a committed P = 1 post-CountKmer checkpoint, with the manifest's
// hash recomputed for them, so the decoder and its validation — not the
// integrity check in front of them — are what the input reaches
// (testdata/fuzz holds the real file and one seed per refusal). The call must
// never panic, and a checkpoint it accepts must satisfy every invariant its
// doc comment lists, checked here independently of it.
func FuzzReadRankCheckpoint(f *testing.F) {
	opt, reads, man, _ := commitFuzzCheckpoint(f, StageCountKmer)
	var windows int64
	for _, r := range reads {
		if len(r) >= opt.K {
			windows += int64(len(r) - opt.K + 1)
		}
	}
	path := filepath.Join(f.TempDir(), rankFile(0)) // a worker runs its inputs one at a time
	f.Fuzz(func(t *testing.T, frame []byte) {
		ck := fuzzRankFile(t, path, frame, man, opt, reads)
		if ck == nil {
			return
		}
		if int(ck.KmerK) != opt.K || ck.KmerNumCols < 0 || int64(ck.KmerNumCols) > windows {
			t.Fatalf("accepted k = %d with %d columns (engine k = %d, %d windows)", ck.KmerK, ck.KmerNumCols, opt.K, windows)
		}
		a := ck.KmerCols
		if a.Lo < 0 || a.Lo > a.Hi || a.Hi > ck.KmerNumCols {
			t.Fatalf("accepted column range [%d,%d) of %d columns", a.Lo, a.Hi, ck.KmerNumCols)
		}
		n := int(a.Hi - a.Lo)
		if len(a.Starts) != n+1 || len(a.Mid) != n || len(a.Vals) != len(a.Rows) || a.Starts[0] != 0 || int(a.Starts[n]) != len(a.Rows) {
			t.Fatalf("accepted %d columns with %d run bounds, %d mids, %d rows and %d values", n, len(a.Starts), len(a.Mid), len(a.Rows), len(a.Vals))
		}
		held := map[[2]int32]bool{}
		for c := range n {
			lo, mid, hi := a.Starts[c], a.Mid[c], a.Starts[c+1]
			if lo > mid || mid > hi || int(hi) > len(a.Rows) {
				t.Fatalf("accepted column %d with run [%d,%d) split at %d over %d rows", c, lo, hi, mid, len(a.Rows))
			}
			col := a.Lo + int32(c)
			for i := lo; i < hi; i++ {
				row, parity := a.Rows[i], int32(0)
				if i >= mid {
					parity = 1
				}
				if row < 0 || int(row) >= len(reads) || row&1 != parity {
					t.Fatalf("accepted row %d of column %d in its sub-run of parity %d, over %d reads", row, col, parity, len(reads))
				}
				if i != lo && i != mid && row <= a.Rows[i-1] {
					t.Fatalf("accepted row %d after %d in column %d", row, a.Rows[i-1], col)
				}
				if cell := [2]int32{row, col}; held[cell] {
					t.Fatalf("accepted read %d holding column %d twice", row, col)
				} else {
					held[cell] = true
				}
				if end := int(a.Vals[i].Pos()) + opt.K; end > len(reads[row]) {
					t.Fatalf("accepted an occurrence ending at %d in read %d of length %d", end, row, len(reads[row]))
				}
			}
		}
	})
}

// FuzzReadCandidateCheckpoint is FuzzReadRankCheckpoint for a committed P = 1
// post-DetectOverlap rank file, whose payload is C's block: the call must
// never panic, and a file it accepts must hold a reads × reads block,
// strictly column-major, whose every cell the checkerboard keeps and whose
// every value is one or two ascending packed seeds, bit 32 clear, each
// window inside both reads — checked here from the key layout, independently
// of overlap.Seeds.Check.
func FuzzReadCandidateCheckpoint(f *testing.F) {
	opt, reads, man, _ := commitFuzzCheckpoint(f, StageDetectOverlap)
	n := int32(len(reads))
	path := filepath.Join(f.TempDir(), rankFile(0))
	f.Fuzz(func(t *testing.T, frame []byte) {
		ck := fuzzRankFile(t, path, frame, man, opt, reads)
		if ck == nil {
			return
		}
		if ck.CandNR != n || ck.CandNC != n {
			t.Fatalf("accepted a %d×%d block of C over %d reads", ck.CandNR, ck.CandNC, n)
		}
		for i, tr := range ck.CandTriples {
			r, c := tr.Row, tr.Col
			if r < 0 || r >= n || c < 0 || c >= n {
				t.Fatalf("accepted triple %d (%d,%d) outside %d reads", i, r, c, n)
			}
			if i > 0 {
				if p := ck.CandTriples[i-1]; c < p.Col || c == p.Col && r <= p.Row {
					t.Fatalf("accepted triple %d (%d,%d) after (%d,%d)", i, r, c, p.Row, p.Col)
				}
			}
			if r == c || ((r+c)%2 == 0) != (r < c) {
				t.Fatalf("accepted triple %d (%d,%d), a cell the checkerboard masks", i, r, c)
			}
			keys := tr.Val[:]
			if keys[1] == ^uint64(0) {
				keys = keys[:1]
			} else if keys[1] <= keys[0] {
				t.Fatalf("accepted triple %d (%d,%d) with keys %#x, %#x", i, r, c, keys[0], keys[1])
			}
			for _, key := range keys {
				pu, pv := int(key>>33), int(key>>1&(1<<31-1))
				if key&(1<<32) != 0 || pu+opt.K > len(reads[r]) || pv+opt.K > len(reads[c]) {
					t.Fatalf("accepted triple %d (%d,%d) with key %#x: seed at %d, %d in reads of %d and %d bases", i, r, c, key, pu, pv, len(reads[r]), len(reads[c]))
				}
			}
		}
	})
}
