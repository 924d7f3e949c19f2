package pipeline

// Durable-checkpoint suite: the checkpoint rows of the equivalence matrix
// (matrix_test.go) hold the on-disk resume path to the in-memory one; here a
// damaged or mismatched checkpoint must fail loudly, naming the rank and
// file, never producing output.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mpi/wire"
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

// TestCheckpointFailsClosedOnSchemaAndOrder: the packed Occur word and the
// row-major order of KmerTriples are load-bearing since schema v3, and the
// rank files' timer rows (FastaReader's included) are the run's traffic
// totals since v4, so (1) a directory committed under an older schema —
// manifest or rank file — is refused with an error naming both schemas, and
// (2) a post-CountKmer checkpoint whose
// triples are out of order, duplicated, or another rank's reads is refused at
// load, naming rank and file, instead of panicking inside DetectOverlap's
// collective construction of A.
func TestCheckpointFailsClosedOnSchemaAndOrder(t *testing.T) {
	reads := testReads(5000, 673)
	opt := DefaultOptions(4)
	opt.K = 21
	opt.XDrop = 25
	write := func(t *testing.T) (dir, stageDir string) {
		dir = t.TempDir()
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
		return dir, filepath.Join(dir, StageCountKmer)
	}
	refused := func(t *testing.T, dir string, frags ...string) {
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
	}
	for _, old := range []uint32{2, 3} {
		schema := fmt.Sprintf("elba/checkpoint/v%d", old)
		t.Run(fmt.Sprintf("v%d manifest", old), func(t *testing.T) {
			dir, stageDir := write(t)
			rewriteManifest(t, stageDir, func(m *CheckpointManifest) { m.Schema = schema })
			refused(t, dir, fmt.Sprintf("schema %q", schema), `"elba/checkpoint/v4"`)
			// Naming the stage directory itself takes the other manifest path.
			refused(t, stageDir, fmt.Sprintf("schema %q", schema), `"elba/checkpoint/v4"`)
		})
		t.Run(fmt.Sprintf("v%d rank file", old), func(t *testing.T) {
			dir, stageDir := write(t)
			rewriteRankFile(t, stageDir, 1, func(ck *ckptRank) { ck.Schema = old })
			refused(t, dir, "rank 1", filepath.Join(stageDir, rankFile(1)), fmt.Sprintf("schema %d (this build reads 4)", old))
		})
	}
	for name, edit := range map[string]func(ck *ckptRank){
		"out of order": func(ck *ckptRank) {
			ts := ck.KmerTriples
			ts[0], ts[len(ts)-1] = ts[len(ts)-1], ts[0]
		},
		"duplicate": func(ck *ckptRank) { ck.KmerTriples[1] = ck.KmerTriples[0] },
		"another rank's read": func(ck *ckptRank) {
			ck.KmerTriples[len(ck.KmerTriples)-1].Row = int32(len(reads) - 1)
		},
		"column past the k-mer count": func(ck *ckptRank) {
			ck.KmerTriples[len(ck.KmerTriples)-1].Col = ck.KmerNumCols
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir, stageDir := write(t)
			rewriteRankFile(t, stageDir, 2, edit)
			refused(t, dir, "rank 2", filepath.Join(stageDir, rankFile(2)), "row-major order")
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
